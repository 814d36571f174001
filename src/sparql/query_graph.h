#ifndef GSTORED_SPARQL_QUERY_GRAPH_H_
#define GSTORED_SPARQL_QUERY_GRAPH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "rdf/term_dict.h"

namespace gstored {

/// Index of a vertex in a QueryGraph.
using QVertexId = uint32_t;

/// Index of an edge (triple pattern) in a QueryGraph. Multi-edges between the
/// same vertex pair keep distinct ids, which the LEC machinery relies on.
using QEdgeId = uint32_t;

/// Largest non-star query the engine evaluates: local partial match
/// enumeration sweeps every connected vertex subset as a 32-bit island mask,
/// 2^n masks per query. ParseSparql rejects larger non-star queries; stars
/// of any size take the local-only shortcut and never enumerate.
inline constexpr size_t kMaxEnumerableVertices = 20;

/// A vertex of the SPARQL query graph (Def. 2): either a variable (label is
/// the "?name" spelling) or a constant RDF term (label is its lexical form).
struct QueryVertex {
  bool is_variable = false;
  std::string label;
};

/// A triple pattern seen as a directed labelled edge of the query graph.
struct QueryEdge {
  QVertexId from = 0;
  QVertexId to = 0;
  bool pred_is_variable = false;
  /// Variable spelling ("?p") or predicate lexical form ("<...>").
  std::string pred_label;
};

/// A SPARQL BGP query as a graph (Def. 2). Vertices are deduplicated by
/// label, so a variable used in several triple patterns is one vertex.
class QueryGraph {
 public:
  QueryGraph() = default;

  /// Adds (or finds) a vertex for `label`. Labels starting with '?' or '$'
  /// become variables; anything else is a constant term.
  QVertexId AddVertex(std::string_view label);

  /// Adds a triple pattern edge. `pred_label` starting with '?' or '$' makes
  /// the predicate a variable (an unconstrained edge-label wildcard).
  QEdgeId AddEdge(std::string_view subject, std::string_view pred_label,
                  std::string_view object);

  const std::vector<QueryVertex>& vertices() const { return vertices_; }
  const std::vector<QueryEdge>& edges() const { return edges_; }
  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const QueryVertex& vertex(QVertexId v) const { return vertices_[v]; }
  const QueryEdge& edge(QEdgeId e) const { return edges_[e]; }

  /// Edge ids incident to `v` (either endpoint), in insertion order.
  const std::vector<QEdgeId>& IncidentEdges(QVertexId v) const {
    return incident_[v];
  }

  /// Query vertex ids adjacent to `v` (via either direction), deduplicated.
  std::vector<QVertexId> Neighbors(QVertexId v) const;

  /// Declared projection variables (informational; matching always produces
  /// full bindings). Empty means SELECT *.
  const std::vector<std::string>& select_vars() const { return select_vars_; }
  void AddSelectVar(std::string_view name) {
    select_vars_.emplace_back(name);
  }

  /// True when the query graph is weakly connected (the paper assumes this).
  bool IsConnected() const;

  /// True when all edges share one common vertex (the "star" query class of
  /// Sec. VIII-B, whose matches never cross fragments).
  bool IsStar() const;

  /// True when some triple pattern has a constant subject or object — the
  /// "selective triple pattern" property marked with a check in Tables I-III.
  bool HasSelectiveTriple() const;

  /// Human-readable one-line description, for logs and bench output.
  std::string ToString() const;

 private:
  std::vector<QueryVertex> vertices_;
  std::vector<QueryEdge> edges_;
  std::vector<std::vector<QEdgeId>> incident_;
  std::vector<std::string> select_vars_;
};

/// A QueryGraph with constants resolved against a concrete dictionary.
/// `vertex_term[v]` / `edge_pred[e]` are kNullTerm for variables.
struct ResolvedQuery {
  const QueryGraph* query = nullptr;
  std::vector<TermId> vertex_term;
  std::vector<TermId> edge_pred;
  /// True when some constant does not exist in the dictionary at all, in
  /// which case the query trivially has zero matches.
  bool impossible = false;
};

/// Resolves constant labels to ids in `dict`. Never interns new terms.
/// Composes ResolveQueryTerms with the duplicate-pattern injectivity check.
ResolvedQuery ResolveQuery(const QueryGraph& query, const TermDict& dict);

/// Dictionary-lookup half of ResolveQuery: resolves constants and sets
/// `impossible` only for constants missing from the dictionary. Skips the
/// static duplicate-pattern analysis, so a plan cache can supply that verdict
/// from a previous instance of the same template.
ResolvedQuery ResolveQueryTerms(const QueryGraph& query, const TermDict& dict);

/// True when two parallel patterns on the same directed vertex pair carry the
/// same constant predicate — Def. 3's injectivity makes such a query
/// statically unsatisfiable. Depends only on the query shape and predicate
/// ids, never on vertex constants, so the verdict is shared by every instance
/// of a template.
bool HasImpossibleDuplicatePattern(const QueryGraph& query,
                                   const std::vector<TermId>& edge_pred);

}  // namespace gstored

#endif  // GSTORED_SPARQL_QUERY_GRAPH_H_
