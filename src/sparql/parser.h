#ifndef GSTORED_SPARQL_PARSER_H_
#define GSTORED_SPARQL_PARSER_H_

#include <string_view>

#include "sparql/query_graph.h"
#include "util/status.h"

namespace gstored {

/// Parses the SPARQL BGP subset used by this library:
///
///   SELECT ?a ?b WHERE { ?a <pred> ?b . ?b <pred2> "lit"@en . }
///   SELECT * WHERE { ... }
///
/// Supported term forms inside the pattern are variables (?x / $x), IRIs in
/// angle brackets, literals with optional @lang / ^^<datatype>, and blank
/// nodes (treated as variables, per SPARQL BGP semantics). Keywords are
/// case-insensitive. PREFIX declarations, FILTERs and non-BGP operators are
/// out of scope (the paper evaluates BGP queries only). A non-star query of
/// more than kMaxEnumerableVertices vertices is a ParseError.
Result<QueryGraph> ParseSparql(std::string_view text);

}  // namespace gstored

#endif  // GSTORED_SPARQL_PARSER_H_
