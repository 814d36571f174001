#include "serve/result_cache.h"

namespace gstored::serve {

namespace {

/// The one query encoding behind both keys: per vertex its
/// variable/constant flag, then each edge in input order as its endpoint
/// numbers and predicate. `labels` adds the vertex labels and the
/// predicate-variable names; constant predicate labels are always written.
std::string EncodeQuery(const QueryGraph& query, bool labels) {
  std::string out;
  out.reserve(32 + query.num_vertices() * (labels ? 8 : 2) +
              query.num_edges() * 16);
  for (const QueryVertex& v : query.vertices()) {
    out.push_back(v.is_variable ? 'v' : 'c');
    if (labels) out += v.label;
    out.push_back('\n');
  }
  out.push_back('\x1e');
  for (const QueryEdge& e : query.edges()) {
    out += std::to_string(e.from);
    out.push_back(',');
    out += std::to_string(e.to);
    out.push_back(e.pred_is_variable ? '?' : '!');
    if (labels || !e.pred_is_variable) out += e.pred_label;
    out.push_back('\n');
  }
  return out;
}

}  // namespace

std::string ExactQueryKey(const QueryGraph& query) {
  return EncodeQuery(query, /*labels=*/true);
}

std::string QueryShapeKey(const QueryGraph& query) {
  return EncodeQuery(query, /*labels=*/false);
}

std::string ExactModeKey(const std::string& exact_key, EngineMode mode) {
  std::string out = exact_key;
  out.push_back('\x1f');
  out.push_back(static_cast<char>('0' + static_cast<int>(mode)));
  return out;
}

}  // namespace gstored::serve
