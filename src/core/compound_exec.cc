#include "core/compound_exec.h"

#include <algorithm>

namespace gstored {

CompoundResult ExecuteCompound(DistributedEngine& engine,
                               const CompoundQuery& query, EngineMode mode) {
  CompoundResult result;

  // Projection columns: declared vars, or the union of all branch variables
  // in first-appearance order.
  if (!query.select_vars.empty()) {
    result.columns = query.select_vars;
  } else {
    for (const QueryGraph& branch : query.branches) {
      for (const QueryVertex& v : branch.vertices()) {
        if (!v.is_variable) continue;
        if (std::find(result.columns.begin(), result.columns.end(),
                      v.label) == result.columns.end()) {
          result.columns.push_back(v.label);
        }
      }
    }
  }

  for (const QueryGraph& branch : query.branches) {
    // Map each projection column to the branch's vertex (or unbound).
    std::vector<QVertexId> column_vertex(result.columns.size(),
                                         static_cast<QVertexId>(-1));
    for (size_t c = 0; c < result.columns.size(); ++c) {
      for (QVertexId v = 0; v < branch.num_vertices(); ++v) {
        if (branch.vertex(v).is_variable &&
            branch.vertex(v).label == result.columns[c]) {
          column_vertex[c] = v;
          break;
        }
      }
    }
    for (const Binding& match : engine.Run({branch, mode}).matches) {
      std::vector<TermId> row(result.columns.size(), kNullTerm);
      for (size_t c = 0; c < result.columns.size(); ++c) {
        if (column_vertex[c] != static_cast<QVertexId>(-1)) {
          row[c] = match[column_vertex[c]];
        }
      }
      result.rows.push_back(std::move(row));
    }
  }

  if (query.distinct) {
    std::sort(result.rows.begin(), result.rows.end());
    result.rows.erase(std::unique(result.rows.begin(), result.rows.end()),
                      result.rows.end());
  }
  if (result.rows.size() > query.limit) {
    result.rows.resize(query.limit);
  }
  return result;
}

}  // namespace gstored
