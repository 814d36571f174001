// Ablation: matching-order enumerators on LUBM-3, over the centralized
// oracle store and each fragment store of a 4-way hash partitioning
// (5 stores x 7 queries = 35 combos). Two comparisons, both scored by
// CountIntermediateResults (consistent partial assignments, i.e. search-tree
// nodes):
//
//  1. PR-3's statistics-driven greedy order versus the pre-statistics
//     candidate-count heuristic it replaced. Expected: never worse, strictly
//     cheaper on the multi-predicate shapes whose correlated predicates the
//     characteristic sets separate.
//  2. The planner's default DP enumerator (src/plan/, connected-subset DP
//     with bushy combinations) versus its kGreedy setting, the cost greedy
//     order. The DP's order is kept whenever the query is in range, even
//     where its estimate is above greedy's, so this measures actual nodes:
//     the bar is zero actual-node regressions, and strictly fewer nodes on
//     more combos than the cost greedy's own win count in ablation 1 (7/35).
//
// Both bars are exit-code-enforced (CI gate). --json FILE additionally
// records the summed node counts in benchmark-JSON shape ("nodes" values)
// for check_bench_regression.py's ratio rows.

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "partition/partitioners.h"
#include "plan/planner.h"
#include "store/local_store.h"
#include "store/matcher.h"
#include "store/stats.h"
#include "util/stopwatch.h"
#include "workload/lubm.h"

using namespace gstored;  // NOLINT — bench-local convenience

namespace {

struct OrderReport {
  size_t nodes = 0;
  double order_micros = 0.0;  // time to compute the order itself
  double count_micros = 0.0;  // time to enumerate the tree
};

OrderReport Measure(const LocalStore& store, const ResolvedQuery& rq,
                    bool use_statistics) {
  OrderReport r;
  Stopwatch order_watch;
  std::vector<QVertexId> order = use_statistics
                                     ? MatchingOrder(store, rq)
                                     : MatchingOrderGreedy(store, rq);
  r.order_micros = order_watch.ElapsedMillis() * 1000.0;
  Stopwatch count_watch;
  r.nodes = CountIntermediateResults(store, rq, order);
  r.count_micros = count_watch.ElapsedMillis() * 1000.0;
  return r;
}

OrderReport MeasurePlan(const LocalStore& store, const ResolvedQuery& rq,
                        PlanEnumerator enumerator) {
  OrderReport r;
  Stopwatch order_watch;
  SitePlan plan = PlanSiteMatchOrder(store, rq, /*use_statistics=*/true,
                                     PlanOptions{.enumerator = enumerator});
  r.order_micros = order_watch.ElapsedMillis() * 1000.0;
  Stopwatch count_watch;
  r.nodes = CountIntermediateResults(store, rq, plan.match_order);
  r.count_micros = count_watch.ElapsedMillis() * 1000.0;
  return r;
}

struct Tally {
  size_t wins = 0, ties = 0, losses = 0;
  size_t challenger_nodes = 0, incumbent_nodes = 0;

  void Add(size_t challenger, size_t incumbent) {
    challenger_nodes += challenger;
    incumbent_nodes += incumbent;
    if (challenger < incumbent) {
      ++wins;
    } else if (challenger == incumbent) {
      ++ties;
    } else {
      ++losses;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  LubmConfig config;
  config.universities = 3;
  Workload w = MakeLubmWorkload(config);
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  LocalStore oracle(&w.dataset->graph());
  std::vector<std::unique_ptr<LocalStore>> stores;
  for (const Fragment& f : p.fragments()) {
    stores.push_back(std::make_unique<LocalStore>(&f.graph()));
  }

  auto for_each_store = [&](auto&& fn) {
    fn("centralized", oracle);
    for (size_t s = 0; s < stores.size(); ++s) {
      char name[16];
      std::snprintf(name, sizeof(name), "site-%zu", s);
      fn(name, *stores[s]);
    }
  };

  std::printf(
      "=== Ablation 1: matching order (LUBM-3, cost model vs greedy) ===\n");
  std::printf("characteristic sets (oracle store): %zu\n",
              oracle.stats().characteristic_sets().size());
  std::printf("%-5s | %-11s | %12s | %12s | %8s | %10s | %10s\n", "query",
              "store", "nodes(cost)", "nodes(greedy)", "ratio", "order us",
              "count us");

  Tally stats_vs_heuristic;
  for (const BenchmarkQuery& bq : w.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, w.dataset->dict());
    for_each_store([&](const char* store_name, const LocalStore& store) {
      OrderReport cost = Measure(store, rq, /*use_statistics=*/true);
      OrderReport greedy = Measure(store, rq, /*use_statistics=*/false);
      double ratio = greedy.nodes == 0
                         ? 1.0
                         : static_cast<double>(cost.nodes) /
                               static_cast<double>(greedy.nodes);
      std::printf("%-5s | %-11s | %12zu | %12zu | %8.3f | %10.1f | %10.1f\n",
                  bq.name.c_str(), store_name, cost.nodes, greedy.nodes,
                  ratio, cost.order_micros, cost.count_micros);
      stats_vs_heuristic.Add(cost.nodes, greedy.nodes);
    });
  }
  std::printf("summary: %zu strictly cheaper, %zu tied, %zu worse\n",
              stats_vs_heuristic.wins, stats_vs_heuristic.ties,
              stats_vs_heuristic.losses);

  std::printf(
      "\n=== Ablation 2: DP plan enumerator vs the PR-3 greedy order ===\n");
  std::printf("%-5s | %-11s | %12s | %12s | %8s | %10s\n", "query", "store",
              "nodes(dp)", "nodes(greedy)", "ratio", "plan us");

  Tally dp_vs_greedy;
  for (const BenchmarkQuery& bq : w.queries) {
    ResolvedQuery rq = ResolveQuery(bq.query, w.dataset->dict());
    for_each_store([&](const char* store_name, const LocalStore& store) {
      OrderReport dp = MeasurePlan(store, rq, PlanEnumerator::kDp);
      OrderReport greedy = MeasurePlan(store, rq, PlanEnumerator::kGreedy);
      double ratio = greedy.nodes == 0
                         ? 1.0
                         : static_cast<double>(dp.nodes) /
                               static_cast<double>(greedy.nodes);
      std::printf("%-5s | %-11s | %12zu | %12zu | %8.3f | %10.1f\n",
                  bq.name.c_str(), store_name, dp.nodes, greedy.nodes, ratio,
                  dp.order_micros);
      dp_vs_greedy.Add(dp.nodes, greedy.nodes);
    });
  }
  std::printf("summary: %zu strictly cheaper, %zu tied, %zu worse "
              "(total nodes: dp %zu vs greedy %zu)\n",
              dp_vs_greedy.wins, dp_vs_greedy.ties, dp_vs_greedy.losses,
              dp_vs_greedy.challenger_nodes, dp_vs_greedy.incumbent_nodes);

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"benchmarks\": [\n"
                 "    {\"name\": \"AblationOrdering/dp_total_nodes\", "
                 "\"nodes\": %zu},\n"
                 "    {\"name\": \"AblationOrdering/greedy_total_nodes\", "
                 "\"nodes\": %zu},\n"
                 "    {\"name\": \"AblationOrdering/dp_wins\", "
                 "\"nodes\": %zu},\n"
                 "    {\"name\": \"AblationOrdering/dp_losses\", "
                 "\"nodes\": %zu}\n"
                 "  ]\n}\n",
                 dp_vs_greedy.challenger_nodes, dp_vs_greedy.incumbent_nodes,
                 dp_vs_greedy.wins, dp_vs_greedy.losses);
    std::fclose(f);
  }

  // Acceptance bars, both exit-code-enforced:
  //  * PR-3: the cost model never worse than the heuristic, better somewhere.
  //  * PR-10: the DP enumerator regresses no combo and strictly beats the
  //    greedy order on more combos than PR-3's own win count (7/35).
  const bool pr3_ok =
      stats_vs_heuristic.losses == 0 && stats_vs_heuristic.wins > 0;
  const bool dp_ok = dp_vs_greedy.losses == 0 && dp_vs_greedy.wins > 7;
  if (!pr3_ok) std::printf("FAIL: cost-model-vs-heuristic bar not met\n");
  if (!dp_ok) std::printf("FAIL: dp-vs-greedy bar not met (need 0 losses, >7 wins)\n");
  return (pr3_ok && dp_ok) ? 0 : 1;
}
