#include "plan/planner.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "store/stats.h"
#include "util/logging.h"

namespace gstored {

namespace {

/// The DP's size gate: its connected-complement loop visits O(3^k) subset
/// splits, so queries and islands above 10 vertices take the greedy order.
/// At 10 the fan-out memo holds at most 2^10 prefixes x 10 vertices x 10
/// starts = 102,400 entries.
constexpr size_t kDpMaxVertices = 10;

/// Islands below 3 vertices, and islands whose greedy unit order is
/// estimated below 256 search-tree nodes, keep that order without running
/// the DP: they cannot repay a per-mask DP (src/plan/README.md has the
/// measurements).
constexpr size_t kDpMinIslandVertices = 3;
constexpr double kDpUnitCostFloor = 256.0;

/// The selective-extension floor shared with EstimateOrderCost: a highly
/// selective edge shrinks the running row estimate but never to zero.
constexpr double kRowsFloor = 1e-6;

/// One DP table entry: the cheapest known linear order covering its subset,
/// with the running intermediate-result size (`rows`) and accumulated
/// search-tree estimate (`cost`) of replaying that order — maintained
/// incrementally with exactly EstimateOrderCost's operations, so
/// `cost == EstimateOrderCost(order)` holds for every entry.
struct DpEntry {
  bool valid = false;
  double cost = 0.0;
  double rows = 0.0;
  std::vector<QVertexId> order;  // query vertex ids, order[0] = start
};

/// Deterministic preference: cheaper cost, then fewer surviving rows, then
/// the lexicographically smaller order — ties never depend on iteration
/// incidentals, so plans are byte-stable across runs.
bool Better(const DpEntry& a, const DpEntry& b) {
  if (!b.valid) return a.valid;
  if (!a.valid) return false;
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.rows != b.rows) return a.rows < b.rows;
  return a.order < b.order;
}

/// DPccp-style enumerator over the connected subsets of `universe` (a vertex
/// bitmask of the query graph). Each subset keeps its cheapest plan; a
/// subset is reached by (a) linear extension — appending one adjacent vertex
/// to a smaller subset's order — and (b) connected-complement combination —
/// concatenating two disjoint subsets' plans, i.e. a bushy join of two
/// independently-optimized subplans linearized for the vertex-at-a-time
/// backtracking matcher. Both candidate kinds are priced incrementally under
/// the same linear metric (ExtensionCost conditioned on the plan's own start
/// vertex), so the winning entry's cost is directly comparable to any other
/// order's EstimateOrderCost.
class SubsetDp {
 public:
  SubsetDp(const ResolvedQuery& rq, const SelectivityEstimator& estimator,
           std::function<bool(QEdgeId)> relevant, uint32_t universe)
      : estimator_(estimator), relevant_(std::move(relevant)) {
    const QueryGraph& q = *rq.query;
    const size_t n = q.num_vertices();
    const QVertexId mask_width =
        static_cast<QVertexId>(std::min<size_t>(n, 32));
    local_of_.assign(n, 0);
    for (QVertexId v = 0; v < mask_width; ++v) {
      if (universe & (uint32_t{1} << v)) {
        local_of_[v] = static_cast<uint32_t>(verts_.size());
        verts_.push_back(v);
      }
    }
    k_ = verts_.size();
    ladj_.assign(k_, 0);
    for (size_t i = 0; i < k_; ++i) {
      for (QVertexId nb : q.Neighbors(verts_[i])) {
        if (nb < mask_width && (universe & (uint32_t{1} << nb)) &&
            nb != verts_[i]) {
          ladj_[i] |= uint32_t{1} << local_of_[nb];
        }
      }
    }
    placed_scratch_.assign(n, false);
  }

  /// The cheapest entry covering the whole universe. Invalid when the
  /// universe is not connected (the caller then keeps the greedy order).
  DpEntry Run() {
    GSTORED_CHECK(k_ >= 1 && k_ <= kDpMaxVertices);
    const uint32_t full = (uint32_t{1} << k_) - 1;
    std::vector<DpEntry> table(size_t{1} << k_);
    for (size_t i = 0; i < k_; ++i) {
      DpEntry& base = table[uint32_t{1} << i];
      base.valid = true;
      base.rows = estimator_.VertexCardinality(verts_[i]);
      base.cost = base.rows;
      base.order = {verts_[i]};
    }
    if (k_ == 1) return table[full];

    for (uint32_t mask = 3; mask <= full; ++mask) {
      if (std::popcount(mask) < 2) continue;
      DpEntry best;
      DpEntry cand;
      // (a) Linear extensions: order(S \ {v}) + v, for v adjacent to the
      // rest. Covers every connected linear order of the subset, modulo the
      // cheapest-per-subset pruning.
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        const uint32_t bit = bits & (~bits + 1);
        const uint32_t prev = mask ^ bit;
        const size_t i = static_cast<size_t>(std::countr_zero(bit));
        const DpEntry& pe = table[prev];
        if (!pe.valid || (ladj_[i] & prev) == 0) continue;
        ExtendBy(pe, prev, i, &cand);
        if (Better(cand, best)) best = std::move(cand);
      }
      // (b) Connected-complement combinations: every ordered partition
      // (S1, S2) of the subset with both halves connected. The bushy plan
      // join(S1, S2) is linearized as order(S1) ++ order(S2) — the tail
      // subplan keeps its independently-optimized internal order — and
      // re-priced honestly along the combined prefix; a tail vertex with no
      // placed neighbor at its position invalidates the candidate (the
      // backtracking matcher requires a connected expansion).
      for (uint32_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        const uint32_t s2 = mask ^ s1;
        if (std::popcount(s2) < 2) continue;  // == linear extension above
        const DpEntry& head = table[s1];
        const DpEntry& tail = table[s2];
        if (!head.valid || !tail.valid) continue;
        if (Concat(head, s1, tail, &cand) && Better(cand, best)) {
          best = std::move(cand);
        }
      }
      table[mask] = std::move(best);
    }
    return table[full];
  }

 private:
  /// Memoized ExtensionCost of placing `local_v` after `placed_local`,
  /// conditioned on `start` (a universe vertex). Connected-complement
  /// re-pricing revisits the same (vertex, prefix) pairs many times; the
  /// memo bounds real estimator work at O(k^2 * 2^k) regardless of how many
  /// partitions the ccp loop enumerates.
  double Fanout(size_t local_v, uint32_t placed_local, QVertexId start) {
    const uint32_t key = placed_local |
                         (static_cast<uint32_t>(local_v) << 16) |
                         (local_of_[start] << 21);
    auto [it, inserted] = fanout_memo_.try_emplace(key, 0.0);
    if (inserted) {
      for (uint32_t bits = placed_local; bits != 0; bits &= bits - 1) {
        placed_scratch_[verts_[std::countr_zero(bits)]] = true;
      }
      it->second =
          estimator_.ExtensionCost(verts_[local_v], placed_scratch_, relevant_,
                                   start, /*pair_anchor=*/true);
      for (uint32_t bits = placed_local; bits != 0; bits &= bits - 1) {
        placed_scratch_[verts_[std::countr_zero(bits)]] = false;
      }
    }
    return it->second;
  }

  void ExtendBy(const DpEntry& from, uint32_t from_mask, size_t local_v,
                DpEntry* out) {
    const double fanout = Fanout(local_v, from_mask, from.order[0]);
    out->valid = true;
    out->rows = from.rows * std::max(fanout, kRowsFloor);
    out->cost = from.cost + out->rows;
    out->order.assign(from.order.begin(), from.order.end());
    out->order.push_back(verts_[local_v]);
  }

  bool Concat(const DpEntry& head, uint32_t head_mask, const DpEntry& tail,
              DpEntry* out) {
    uint32_t placed = head_mask;
    double rows = head.rows;
    double cost = head.cost;
    const QVertexId start = head.order[0];
    for (QVertexId v : tail.order) {
      const size_t lv = local_of_[v];
      if ((ladj_[lv] & placed) == 0) return false;
      const double fanout = Fanout(lv, placed, start);
      rows *= std::max(fanout, kRowsFloor);
      cost += rows;
      placed |= uint32_t{1} << lv;
    }
    out->valid = true;
    out->rows = rows;
    out->cost = cost;
    out->order.assign(head.order.begin(), head.order.end());
    out->order.insert(out->order.end(), tail.order.begin(), tail.order.end());
    return true;
  }

  const SelectivityEstimator& estimator_;
  const std::function<bool(QEdgeId)> relevant_;
  std::vector<QVertexId> verts_;    ///< local index -> query vertex
  std::vector<uint32_t> local_of_;  ///< query vertex -> local index
  std::vector<uint32_t> ladj_;      ///< local adjacency masks
  size_t k_ = 0;
  std::vector<bool> placed_scratch_;
  std::unordered_map<uint32_t, double> fanout_memo_;
};

/// Whether the DP may plan `rq` at all; each entry point adds its size gate.
bool DpEnabled(bool use_statistics, const PlanOptions& options,
               const ResolvedQuery& rq) {
  return use_statistics && options.enumerator == PlanEnumerator::kDp &&
         !rq.impossible;
}

}  // namespace

double EstimateOrderCost(const LocalStore& store, const ResolvedQuery& rq,
                         std::span<const QVertexId> order,
                         const std::function<bool(QEdgeId)>& relevant) {
  if (order.empty()) return 0.0;
  const SelectivityEstimator estimator(&store.stats(), &rq);
  std::vector<bool> placed(rq.query->num_vertices(), false);
  double rows = estimator.VertexCardinality(order[0]);
  double cost = rows;
  placed[order[0]] = true;
  for (size_t i = 1; i < order.size(); ++i) {
    const double fanout = estimator.ExtensionCost(order[i], placed, relevant,
                                                  order[0], /*pair_anchor=*/true);
    rows *= std::max(fanout, kRowsFloor);
    cost += rows;
    placed[order[i]] = true;
  }
  return cost;
}

SitePlan PlanSiteMatchOrder(const LocalStore& store, const ResolvedQuery& rq,
                            bool use_statistics, const PlanOptions& options) {
  const size_t n = rq.query->num_vertices();
  if (DpEnabled(use_statistics, options, rq) && n >= 1 &&
      n <= kDpMaxVertices) {
    const SelectivityEstimator estimator(&store.stats(), &rq);
    DpEntry best =
        SubsetDp(rq, estimator, nullptr, (uint32_t{1} << n) - 1).Run();
    if (best.valid) return {std::move(best.order), best.cost};
  }
  SitePlan plan;
  plan.match_order = MatchingOrder(store, rq, use_statistics);
  plan.cost = EstimateOrderCost(store, rq, plan.match_order);
  return plan;
}

std::vector<QVertexId> PlanIslandUnitOrder(const LocalStore& store,
                                           const ResolvedQuery& rq,
                                           const IslandTask& task,
                                           bool use_statistics,
                                           const PlanOptions& options) {
  std::vector<QVertexId> greedy =
      BuildIslandUnitOrder(store, rq, task, use_statistics);
  const size_t island_size = static_cast<size_t>(std::popcount(task.island));
  if (!DpEnabled(use_statistics, options, rq) ||
      island_size < kDpMinIslandVertices || island_size > kDpMaxVertices) {
    return greedy;
  }
  const QueryGraph& q = *rq.query;
  std::vector<bool> in_island(q.num_vertices(), false);
  const QVertexId mask_width =
      static_cast<QVertexId>(std::min<size_t>(q.num_vertices(), 32));
  for (QVertexId v = 0; v < mask_width; ++v) {
    in_island[v] = (task.island & (uint32_t{1} << v)) != 0;
  }
  // The unit metric prices only the edges the unit's search enforces — those
  // incident to the island (BuildIslandUnitOrder's relevant filter).
  auto relevant = [&](QEdgeId eid) {
    const QueryEdge& e = q.edge(eid);
    return in_island[e.from] || in_island[e.to];
  };
  if (EstimateOrderCost(store, rq, greedy, relevant) < kDpUnitCostFloor) {
    return greedy;
  }

  const SelectivityEstimator estimator(&store.stats(), &rq);
  DpEntry best = SubsetDp(rq, estimator, relevant, task.island).Run();
  if (!best.valid) return greedy;

  // Boundary phase: append boundary vertices cheapest-estimated-extension
  // first — the same step BuildOrderByCost runs — each adjacent to the
  // island by the task's construction.
  std::vector<bool> placed(q.num_vertices(), false);
  std::vector<QVertexId> order = std::move(best.order);
  for (QVertexId v : order) placed[v] = true;
  size_t remaining = static_cast<size_t>(std::popcount(task.boundary));
  auto eligible = [&](QVertexId v) {
    return v < mask_width && (task.boundary & (uint32_t{1} << v)) != 0;
  };
  while (remaining > 0) {
    const QVertexId next = estimator.PickCheapestExtension(
        placed, eligible, relevant, order[0], nullptr, /*pair_anchor=*/true);
    GSTORED_CHECK(next != SelectivityEstimator::kNoVertex);
    order.push_back(next);
    placed[next] = true;
    --remaining;
  }
  return order;
}

}  // namespace gstored
