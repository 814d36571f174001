#include "serve/plan_cache.h"

#include <algorithm>
#include <cstdint>

#include "plan/planner.h"
#include "store/matcher.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gstored::serve {

namespace {

/// Hash label of one edge for the refinement rounds: predicate variables are
/// interchangeable wildcards (the matcher never joins on their names), so
/// they all share one label. A hash collision here only merges two color
/// classes — more candidates to search, never a wrong key, because the final
/// key embeds the label strings verbatim.
uint64_t EdgeLabelHash(const QueryEdge& e) {
  return e.pred_is_variable ? 0 : Fnv1a64(e.pred_label);
}

/// Appends `x` as four big-endian bytes. The fixed width keeps counts and
/// positions distinct at every query size (a single byte wraps at 256), and
/// big-endian order makes byte comparison agree with numeric comparison.
void AppendU32(std::string* out, uint32_t x) {
  out->push_back(static_cast<char>(x >> 24));
  out->push_back(static_cast<char>(x >> 16));
  out->push_back(static_cast<char>(x >> 8));
  out->push_back(static_cast<char>(x));
}

/// Complete encoding of the abstracted shape under a vertex numbering:
/// vertex count, per-position variable/constant flags, then the sorted edge
/// list with predicate labels verbatim. Two shapes encode equal if and only
/// if the numbering maps one onto the other.
std::string EncodeUnderMapping(const QueryGraph& q,
                               const std::vector<QVertexId>& canon_of) {
  const size_t n = q.num_vertices();
  std::string out;
  out.reserve(4 + n + q.num_edges() * 16);
  AppendU32(&out, static_cast<uint32_t>(n));
  std::string flags(n, 'c');
  for (QVertexId v = 0; v < n; ++v) {
    if (q.vertex(v).is_variable) flags[canon_of[v]] = 'v';
  }
  out += flags;
  std::vector<std::string> lines;
  lines.reserve(q.num_edges());
  for (const QueryEdge& e : q.edges()) {
    std::string line;
    AppendU32(&line, canon_of[e.from]);
    AppendU32(&line, canon_of[e.to]);
    if (e.pred_is_variable) {
      line.push_back('?');
    } else {
      line.push_back('!');
      line += e.pred_label;
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

std::vector<QVertexId> InvertMapping(const std::vector<QVertexId>& canon_of) {
  std::vector<QVertexId> inv(canon_of.size());
  for (QVertexId v = 0; v < canon_of.size(); ++v) inv[canon_of[v]] = v;
  return inv;
}

uint32_t TranslateMask(uint32_t mask, const std::vector<QVertexId>& map) {
  uint32_t out = 0;
  for (QVertexId v = 0; v < map.size(); ++v) {
    if (mask & (1u << v)) out |= 1u << map[v];
  }
  return out;
}

std::vector<QVertexId> TranslateOrder(const std::vector<QVertexId>& order,
                                      const std::vector<QVertexId>& map) {
  std::vector<QVertexId> out(order.size());
  for (size_t i = 0; i < order.size(); ++i) out[i] = map[order[i]];
  return out;
}

}  // namespace

CanonicalForm CanonicalizeQueryShape(const QueryGraph& query) {
  const size_t n = query.num_vertices();
  CanonicalForm form;
  form.canon_of.resize(n);
  for (QVertexId v = 0; v < n; ++v) form.canon_of[v] = v;
  // Oversized queries (which the engine enumerates only as stars) skip the
  // refinement and keep the exact input-order key.
  if (n == 0 || n > 120) {
    form.canonical = false;
    form.key = "RAW:" + EncodeUnderMapping(query, form.canon_of);
    return form;
  }

  // ---- Color refinement: start from the variable/constant flag and fold in
  // the multiset of (direction, edge label, neighbor color) signatures until
  // stable (n rounds always suffice). Colors are densified to their rank
  // among the distinct hash values each round, which is numbering-invariant:
  // isomorphic instances reach identical color histograms.
  std::vector<uint64_t> color(n);
  for (QVertexId v = 0; v < n; ++v) {
    color[v] = query.vertex(v).is_variable ? 0x1234567890abcdefULL
                                           : 0xfedcba0987654321ULL;
  }
  std::vector<uint64_t> next(n);
  std::vector<uint64_t> sig;
  for (size_t round = 0; round < n; ++round) {
    for (QVertexId v = 0; v < n; ++v) {
      sig.clear();
      for (QEdgeId eid : query.IncidentEdges(v)) {
        const QueryEdge& e = query.edge(eid);
        const uint64_t label = EdgeLabelHash(e);
        if (e.from == v) {
          sig.push_back(HashCombine(HashCombine(1, label), color[e.to]));
        }
        if (e.to == v) {
          sig.push_back(HashCombine(HashCombine(2, label), color[e.from]));
        }
      }
      std::sort(sig.begin(), sig.end());
      uint64_t h = HashCombine(0x51ed2701a1b2c3d4ULL, color[v]);
      for (uint64_t s : sig) h = HashCombine(h, s);
      next[v] = h;
    }
    std::vector<uint64_t> distinct(next);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (QVertexId v = 0; v < n; ++v) {
      color[v] = static_cast<uint64_t>(
          std::lower_bound(distinct.begin(), distinct.end(), next[v]) -
          distinct.begin());
    }
    if (distinct.size() == n) break;  // all classes singleton — stable
  }

  // ---- Group vertices into color classes (class order = color rank, which
  // is numbering-invariant) and bound the symmetry search.
  std::vector<std::vector<QVertexId>> classes;
  {
    uint64_t num_colors = 0;
    for (QVertexId v = 0; v < n; ++v) {
      num_colors = std::max(num_colors, color[v] + 1);
    }
    classes.resize(num_colors);
    for (QVertexId v = 0; v < n; ++v) {
      classes[color[v]].push_back(v);  // ascending v within a class
    }
  }
  size_t candidates = 1;
  for (const auto& cls : classes) {
    for (size_t k = 2; k <= cls.size(); ++k) {
      candidates *= k;
      if (candidates > kMaxCanonicalCandidates) break;
    }
    if (candidates > kMaxCanonicalCandidates) break;
  }
  if (candidates > kMaxCanonicalCandidates) {
    form.canonical = false;
    form.key = "RAW:" + EncodeUnderMapping(query, form.canon_of);
    return form;
  }

  // ---- Minimal-encoding search: odometer over the per-class permutations,
  // keeping the lexicographically smallest complete encoding. Equal-color
  // vertices are structurally interchangeable up to the refinement's
  // resolution; taking the minimum fixes one representative numbering, so
  // every instance of the template lands on the same key.
  std::vector<std::vector<QVertexId>> perm = classes;
  std::string best_key;
  std::vector<QVertexId> best_map;
  std::vector<QVertexId> canon_of(n);
  while (true) {
    QVertexId pos = 0;
    for (const auto& cls : perm) {
      for (QVertexId v : cls) canon_of[v] = pos++;
    }
    std::string key = EncodeUnderMapping(query, canon_of);
    if (best_key.empty() || key < best_key) {
      best_key = std::move(key);
      best_map = canon_of;
    }
    size_t i = 0;
    while (i < perm.size() &&
           !std::next_permutation(perm[i].begin(), perm[i].end())) {
      ++i;  // this digit wrapped; carry into the next class
    }
    if (i == perm.size()) break;
  }
  form.key = std::move(best_key);
  form.canon_of = std::move(best_map);
  return form;
}

void FillCachedPlan(const DistributedEngine& engine, const QueryGraph& query,
                    const CanonicalForm& form, CachedPlan* plan) {
  // Single-filler: every concurrent first instance serializes here, and all
  // the fill work (resolution included) happens after the ready re-check, so
  // losers of the race do nothing at all.
  std::lock_guard<std::mutex> lock(plan->mu);
  if (plan->ready.load(std::memory_order_acquire)) return;
  const ResolvedQuery rq =
      ResolveQueryTerms(query, engine.partitioning().dataset().dict());
  const size_t n = query.num_vertices();
  const int num_sites = engine.num_sites();
  const bool use_statistics = engine.options().use_statistics;

  plan->statically_impossible =
      HasImpossibleDuplicatePattern(query, rq.edge_pred);

  // Island tasks exist only for enumerable shapes (the engine itself checks
  // the same bound); star queries never reach LPM enumeration, so their
  // empty task list is simply never consulted.
  std::vector<IslandTask> instance_tasks;
  if (n >= 1 && n <= kMaxEnumerableVertices && !query.IsStar()) {
    instance_tasks = EnumerateIslandTasks(query);
  }
  plan->island_tasks.clear();
  plan->island_tasks.reserve(instance_tasks.size());
  for (const IslandTask& task : instance_tasks) {
    plan->island_tasks.push_back(
        IslandTask{TranslateMask(task.island, form.canon_of),
                   TranslateMask(task.boundary, form.canon_of)});
  }

  // An impossible instance (missing dictionary constant) has no meaningful
  // statistics to score orders with; leave the entry not-ready so the first
  // satisfiable instance fills it instead.
  if (rq.impossible) return;

  plan->site_match_orders.assign(num_sites, {});
  plan->site_unit_orders.assign(num_sites, {});
  const PlanOptions& plan_options = engine.options().plan;
  for (int site = 0; site < num_sites; ++site) {
    plan->site_match_orders[site] = TranslateOrder(
        PlanSiteMatchOrder(engine.store(site), rq, use_statistics,
                           plan_options)
            .match_order,
        form.canon_of);
    auto& unit_orders = plan->site_unit_orders[site];
    unit_orders.reserve(instance_tasks.size());
    for (const IslandTask& task : instance_tasks) {
      unit_orders.push_back(TranslateOrder(
          PlanIslandUnitOrder(engine.store(site), rq, task, use_statistics,
                              plan_options),
          form.canon_of));
    }
  }
  plan->ready.store(true, std::memory_order_release);
}

PlanArtifacts InstantiatePlan(const CachedPlan& plan,
                              const CanonicalForm& form) {
  GSTORED_CHECK(plan.ready.load(std::memory_order_acquire));
  const std::vector<QVertexId> inv = InvertMapping(form.canon_of);
  PlanArtifacts out;
  out.has_plan = true;
  out.statically_impossible = plan.statically_impossible;

  // Translate tasks to instance space, then re-sort into ascending instance
  // island-mask order — exactly EnumerateIslandTasks' own order — so the
  // plan-driven enumeration emits LPMs in the same order as a plan-less run.
  const size_t num_tasks = plan.island_tasks.size();
  std::vector<size_t> index(num_tasks);
  out.island_tasks.resize(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    index[i] = i;
    out.island_tasks[i] =
        IslandTask{TranslateMask(plan.island_tasks[i].island, inv),
                   TranslateMask(plan.island_tasks[i].boundary, inv)};
  }
  std::sort(index.begin(), index.end(), [&](size_t a, size_t b) {
    return out.island_tasks[a].island < out.island_tasks[b].island;
  });
  std::vector<IslandTask> sorted_tasks(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    sorted_tasks[i] = out.island_tasks[index[i]];
  }
  out.island_tasks = std::move(sorted_tasks);

  out.site_match_orders.resize(plan.site_match_orders.size());
  for (size_t site = 0; site < plan.site_match_orders.size(); ++site) {
    out.site_match_orders[site] =
        TranslateOrder(plan.site_match_orders[site], inv);
  }
  out.site_unit_orders.resize(plan.site_unit_orders.size());
  for (size_t site = 0; site < plan.site_unit_orders.size(); ++site) {
    const auto& canonical = plan.site_unit_orders[site];
    auto& instance = out.site_unit_orders[site];
    instance.resize(canonical.size());
    for (size_t i = 0; i < canonical.size(); ++i) {
      instance[i] = TranslateOrder(canonical[index[i]], inv);
    }
  }
  return out;
}

void PlanArtifacts::Bind(QueryContext* ctx) const {
  if (!has_plan) return;
  ctx->has_plan = true;
  ctx->statically_impossible = statically_impossible;
  if (!island_tasks.empty()) {
    ctx->island_tasks = &island_tasks;
    bool unit_orders_filled = false;
    for (const auto& per_site : site_unit_orders) {
      if (!per_site.empty()) unit_orders_filled = true;
    }
    if (unit_orders_filled) ctx->site_unit_orders = &site_unit_orders;
  }
  bool match_orders_filled = false;
  for (const auto& order : site_match_orders) {
    if (!order.empty()) match_orders_filled = true;
  }
  if (match_orders_filled) ctx->site_match_orders = &site_match_orders;
}

}  // namespace gstored::serve
