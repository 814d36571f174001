#ifndef GSTORED_CORE_COMPOUND_EXEC_H_
#define GSTORED_CORE_COMPOUND_EXEC_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "sparql/compound.h"

namespace gstored {

/// A projected result table for a compound query: named columns plus rows
/// of term ids. kNullTerm marks an unbound cell (a projection variable not
/// used by the branch that produced the row — SPARQL UNION semantics).
struct CompoundResult {
  std::vector<std::string> columns;
  std::vector<std::vector<TermId>> rows;
};

/// Evaluates every UNION branch through the distributed engine, projects
/// onto the query's SELECT variables (or the union of all branch variables
/// for SELECT *), applies DISTINCT and LIMIT, and returns the merged table.
/// Branch rows are produced in engine order; DISTINCT sorts.
CompoundResult ExecuteCompound(DistributedEngine& engine,
                               const CompoundQuery& query,
                               EngineMode mode = EngineMode::kFull);

}  // namespace gstored

#endif  // GSTORED_CORE_COMPOUND_EXEC_H_
