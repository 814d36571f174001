#ifndef GSTORED_CORE_LOCAL_PARTIAL_MATCH_H_
#define GSTORED_CORE_LOCAL_PARTIAL_MATCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "partition/fragment.h"
#include "rdf/term_dict.h"
#include "store/local_store.h"
#include "store/matcher.h"
#include "util/bitset.h"

namespace gstored {

/// One crossing-edge mapping of a local partial match: the query edge's
/// directed vertex pair together with the data vertex pair it maps to.
/// This is the pair-level view of the function g of Def. 8 — sufficient
/// because f is a function on vertices, so the data pair determines the
/// mapping of both endpoints.
struct CrossingPairMap {
  QVertexId q_from = 0;
  QVertexId q_to = 0;
  TermId d_from = kNullTerm;
  TermId d_to = kNullTerm;

  friend bool operator==(const CrossingPairMap&, const CrossingPairMap&) =
      default;
  friend auto operator<=>(const CrossingPairMap&, const CrossingPairMap&) =
      default;
};

/// A local partial match (Def. 5): the overlap of a (potential) crossing
/// match with one fragment. `binding[v]` is f(v), kNullTerm where v is
/// unmatched; `sign` has bit v set when f(v) is an internal vertex of the
/// fragment (the LECSign of Def. 8); `crossing` lists the crossing-edge
/// mappings, sorted and deduplicated.
struct LocalPartialMatch {
  FragmentId fragment = -1;
  Binding binding;
  Bitset sign;
  std::vector<CrossingPairMap> crossing;

  /// Serialization in the paper's notation, e.g. "[006,NULL,001,NULL,003]".
  std::string ToString(const TermDict& dict) const;

  /// Structural equality, used by the parallel-determinism tests to compare
  /// enumeration outputs element for element.
  friend bool operator==(const LocalPartialMatch&, const LocalPartialMatch&) =
      default;
};

class ThreadPool;

/// One unit of partial-match enumeration: a connected island of query
/// vertices (bitmask over QVertexId) together with its boundary — the
/// non-island vertices adjacent to it, which must map to extended vertices.
/// Depends only on the query's shape, so a plan cache can enumerate the
/// tasks once per template and replay them for every instance.
struct IslandTask {
  uint32_t island = 0;
  uint32_t boundary = 0;

  friend bool operator==(const IslandTask&, const IslandTask&) = default;
};

/// Enumerates the valid (island, boundary) mask pairs of `q` in ascending
/// island-mask order — exactly the task list EnumerateLocalPartialMatches
/// builds internally. Requires 1 <= q.num_vertices() <=
/// kMaxEnumerableVertices.
std::vector<IslandTask> EnumerateIslandTasks(const QueryGraph& q);

/// Computes one island task's backtracking order: by the statistics cost
/// model when `use_statistics`, else BFS-through-island. The enumerator's
/// built-in unit order, and the greedy fallback of the src/plan/ planner.
/// Exposed so a plan cache can precompute and replay unit orders per
/// (template, fragment); reusing an order from a differently-bound instance
/// of the same template changes enumeration cost only, never the match set.
std::vector<QVertexId> BuildIslandUnitOrder(const LocalStore& store,
                                            const ResolvedQuery& rq,
                                            const IslandTask& task,
                                            bool use_statistics);

/// Options for the partial-match enumerator.
struct EnumerateOptions {
  /// Optional filter on extended-vertex assignments — Algorithm 4's
  /// candidate bit vectors. A boundary assignment f(v)=u (u extended) is
  /// only allowed when filter(v, u) is true. Internal assignments are never
  /// filtered (they are always sound). With num_threads > 1 the filter is
  /// invoked concurrently and must be thread-safe (the engine's bit-vector
  /// probes are read-only, hence safe).
  std::function<bool(QVertexId, TermId)> extended_filter;

  /// Maximum worker slots for the enumeration. Island masks run through
  /// one ParallelForConcat: each mask's matches land in a per-mask vector
  /// and the vectors are concatenated in ascending mask order, so the
  /// output is byte-identical for every slot count. One slot runs the masks
  /// inline on the caller.
  size_t num_threads = 1;

  /// Pool supplying the extra slots; nullptr = ThreadPool::Shared().
  ThreadPool* pool = nullptr;

  /// Order each island unit's backtracking by the statistics cost model
  /// (smallest estimated cardinality first, then cheapest estimated
  /// expansion), instead of the plain BFS-through-island order — the
  /// `use_statistics` argument of BuildIslandUnitOrder when neither
  /// `unit_orders` nor `unit_order_fn` is set. The match set per unit is
  /// identical either way; only enumeration cost and the within-unit
  /// emission order change.
  bool use_statistics = true;

  /// Precomputed island tasks (a previous EnumerateIslandTasks result for
  /// this query's shape, in this query's vertex numbering). nullptr =
  /// enumerate internally.
  const std::vector<IslandTask>* tasks = nullptr;

  /// Per-task precomputed backtracking orders, aligned with `tasks` (or with
  /// the internal enumeration order when `tasks` is null). When set, unit
  /// ordering skips the SelectivityEstimator scoring pass — a plan-cache
  /// hit. Orders must come from PlanIslandUnitOrder or BuildIslandUnitOrder
  /// for the same template, in the same vertex numbering, on the same
  /// fragment.
  const std::vector<std::vector<QVertexId>>* unit_orders = nullptr;

  /// Optional external unit-order planner, consulted per island task when
  /// `unit_orders` is not set: the enumerator calls it instead of
  /// BuildIslandUnitOrder. Must return a valid unit order (island first,
  /// connected, then boundary) and be thread-safe — with num_threads > 1
  /// island masks score concurrently. The engine wires the src/plan/
  /// planner through this hook and counts each call as one order-scoring
  /// pass.
  std::function<std::vector<QVertexId>(const IslandTask&)> unit_order_fn;
};

/// Enumerates every local partial match of the resolved query in `fragment`
/// (Def. 5). The enumeration is island-driven: condition 6 forces the
/// internally-matched query vertices to form one weakly-connected set I
/// ("island"); condition 5 then forces exactly the query edges incident to I
/// to be matched, with the non-island endpoints ("boundary") mapped to
/// extended vertices via crossing edges. The function enumerates every
/// connected island with a non-empty boundary and backtracks over
/// label-consistent assignments.
///
/// `store` must be a LocalStore built over `fragment.graph()`.
std::vector<LocalPartialMatch> EnumerateLocalPartialMatches(
    const Fragment& fragment, const LocalStore& store,
    const ResolvedQuery& rq, const EnumerateOptions& options = {});

}  // namespace gstored

#endif  // GSTORED_CORE_LOCAL_PARTIAL_MATCH_H_
