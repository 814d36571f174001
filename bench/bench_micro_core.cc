// Google-benchmark microbenchmarks of the core building blocks: SPARQL
// parsing, candidate computation, local matching, LPM enumeration, LEC
// feature computation, pruning, assembly, relational joins, the candidate
// bit vector and Alg. 4's candidate exchange. These are the per-operation
// costs behind the table/figure harnesses.

#include <benchmark/benchmark.h>

#include "baselines/relational.h"
#include "core/assembly.h"
#include "core/candidate_exchange.h"
#include "core/engine.h"
#include "core/join_graph.h"
#include "core/lec_feature.h"
#include "core/local_partial_match.h"
#include "core/pruning.h"
#include "core/query_context.h"
#include "partition/partitioners.h"
#include "sparql/parser.h"
#include "store/matcher.h"
#include "util/bitvector_filter.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

/// Shared fixture: a LUBM-style dataset, a 4-way hash partitioning, and the
/// LQ7 query (the heaviest non-star shape). Built once.
struct MicroFixture {
  MicroFixture()
      : workload(MakeLubmWorkload([] {
          LubmConfig config;
          config.universities = 3;
          return config;
        }())),
        partitioning(HashPartitioner().Partition(*workload.dataset, 4)),
        oracle_store(&workload.dataset->graph()),
        query(workload.queries[6].query),  // LQ7
        rq(ResolveQuery(query, workload.dataset->dict())) {
    for (const Fragment& f : partitioning.fragments()) {
      stores.push_back(std::make_unique<LocalStore>(&f.graph()));
      auto fragment_lpms =
          EnumerateLocalPartialMatches(f, *stores.back(), rq);
      lpms.insert(lpms.end(), fragment_lpms.begin(), fragment_lpms.end());
    }
    features = ComputeLecFeatures(lpms);
  }

  Workload workload;
  Partitioning partitioning;
  LocalStore oracle_store;
  QueryGraph query;
  ResolvedQuery rq;
  std::vector<std::unique_ptr<LocalStore>> stores;
  std::vector<LocalPartialMatch> lpms;
  LecFeatureSet features;
};

MicroFixture& Fixture() {
  static MicroFixture* fixture = new MicroFixture();
  return *fixture;
}

void BM_ParseSparql(benchmark::State& state) {
  const std::string text =
      "SELECT ?s ?c ?p WHERE { ?s <http://lubm.org/ont#takesCourse> ?c . "
      "?p <http://lubm.org/ont#teacherOf> ?c . "
      "?s <http://lubm.org/ont#advisor> ?p . }";
  for (auto _ : state) {
    auto result = ParseSparql(text);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ParseSparql);

/// The most frequent predicate of the fixture graph — the pair of expansion
/// benchmarks below must stress the same, longest ranges.
TermId MostFrequentPredicate(const MicroFixture& f) {
  const RdfGraph& g = f.workload.dataset->graph();
  TermId pred = g.predicates()[0];
  for (TermId p : g.predicates()) {
    if (f.oracle_store.PredicateCount(p) >
        f.oracle_store.PredicateCount(pred)) {
      pred = p;
    }
  }
  return pred;
}

/// Predicate-constrained neighbor expansion through the CSR predicate
/// directory — the matcher's single hottest operation, run over every
/// vertex of the graph.
void BM_AdjacencyExpansionByPredicate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const RdfGraph& g = f.workload.dataset->graph();
  TermId pred = MostFrequentPredicate(f);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (TermId v : g.vertices()) {
      for (const HalfEdge& h : g.OutEdges(v, pred)) sum += h.neighbor;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_vertices()));
}
BENCHMARK(BM_AdjacencyExpansionByPredicate);

/// The pre-CSR equivalent: scan the full adjacency list and filter by
/// predicate. Kept as the comparison bar for the predicate directory.
void BM_AdjacencyExpansionFullScan(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const RdfGraph& g = f.workload.dataset->graph();
  TermId pred = MostFrequentPredicate(f);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (TermId v : g.vertices()) {
      for (const HalfEdge& h : g.OutEdges(v)) {
        if (h.predicate == pred) sum += h.neighbor;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_vertices()));
}
BENCHMARK(BM_AdjacencyExpansionFullScan);

/// The innermost backtracking check: Def. 3's injective label condition over
/// one parallel-edge group, evaluated for every data edge of the graph.
void BM_ParallelEdgesSatisfiable(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const RdfGraph& g = f.workload.dataset->graph();
  // Any constant-predicate query edge forms a singleton group.
  QEdgeId eid = 0;
  for (QEdgeId e = 0; e < f.query.num_edges(); ++e) {
    if (f.rq.edge_pred[e] != kNullTerm) eid = e;
  }
  const std::vector<QEdgeId> group = {eid};
  const auto& triples = g.triples();
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t i = 0; i < triples.size(); i += 7) {
      hits += ParallelEdgesSatisfiable(g, f.rq, group, triples[i].subject,
                                       triples[i].object);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(triples.size() / 7));
}
BENCHMARK(BM_ParallelEdgesSatisfiable);

void BM_MatchingOrder(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    auto order = MatchingOrder(f.oracle_store, f.rq);
    benchmark::DoNotOptimize(order);
  }
}
BENCHMARK(BM_MatchingOrder);

void BM_CandidateComputation(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    for (QVertexId v = 0; v < f.query.num_vertices(); ++v) {
      auto candidates = f.oracle_store.Candidates(f.rq, v);
      benchmark::DoNotOptimize(candidates);
    }
  }
}
BENCHMARK(BM_CandidateComputation);

// The seed rule's scans: LocalStore::CandidatesInto over every variable of
// LQ1-LQ7, on the LUBM-3 store and on each of its 4 hash fragments. Reports
// the seed entries walked (`scanned`), an exact figure the CI gate pins, and
// the candidates admitted. Every query but LQ7 joins a variable to a
// constant, so a scan that walks a whole predicate's rows where the
// constant's adjacency is smaller moves `scanned`.
void BM_SeedScan(benchmark::State& state) {
  MicroFixture& f = Fixture();
  std::vector<ResolvedQuery> queries;
  for (const BenchmarkQuery& bq : f.workload.queries) {
    queries.push_back(ResolveQuery(bq.query, f.workload.dataset->dict()));
  }
  std::vector<const LocalStore*> stores = {&f.oracle_store};
  for (const auto& store : f.stores) stores.push_back(store.get());
  std::vector<TermId> candidates;
  size_t scanned = 0;
  size_t admitted = 0;
  for (auto _ : state) {
    scanned = 0;
    admitted = 0;
    for (const ResolvedQuery& rq : queries) {
      for (const LocalStore* store : stores) {
        for (QVertexId v = 0; v < rq.query->num_vertices(); ++v) {
          if (rq.vertex_term[v] != kNullTerm) continue;
          scanned += store->CandidatesInto(rq, v, &candidates);
          admitted += candidates.size();
        }
      }
    }
    benchmark::DoNotOptimize(scanned);
  }
  state.counters["scanned"] = static_cast<double>(scanned);
  state.counters["admitted"] = static_cast<double>(admitted);
}
BENCHMARK(BM_SeedScan);

// One fault-free Alg. 4 round on the fixture's 4 hash sites: each site
// ships each LQ7 variable as ids or as a vector, whichever is shorter, and
// the coordinator broadcasts the union. Reports the `candidates` ledger
// (`bytes`), the set bits over the exchanged unions (`union_bits`) and the
// LPMs the 4 sites enumerate under them (`filtered_lpms`, counted once
// outside the timed loop), exact figures the CI gate pins: the bytes pin
// the wire form, the other two that the union stays the fixed-length one.
void BM_CandidateExchange(benchmark::State& state) {
  MicroFixture& f = Fixture();
  std::vector<const LocalStore*> stores;
  for (const auto& store : f.stores) stores.push_back(store.get());
  CandidateExchange exchange;
  for (auto _ : state) {
    QuerySession session(static_cast<int>(stores.size()));
    exchange = ExchangeInternalCandidates(f.partitioning, stores, f.rq,
                                          session.transport, session.ledger);
    benchmark::DoNotOptimize(exchange);
  }
  size_t union_bits = 0;
  for (QVertexId v = 0; v < f.query.num_vertices(); ++v) {
    if (!exchange.exchanged[v]) continue;
    for (uint64_t word : exchange.filters[v].words()) {
      union_bits += static_cast<size_t>(__builtin_popcountll(word));
    }
  }
  EnumerateOptions options;
  options.extended_filter = [&](QVertexId v, TermId u) {
    return !exchange.exchanged[v] || exchange.filters[v].MayContain(u);
  };
  size_t filtered_lpms = 0;
  for (size_t s = 0; s < f.stores.size(); ++s) {
    filtered_lpms += EnumerateLocalPartialMatches(f.partitioning.fragments()[s],
                                                  *f.stores[s], f.rq, options)
                         .size();
  }
  state.counters["bytes"] = static_cast<double>(exchange.shipment_bytes);
  state.counters["union_bits"] = static_cast<double>(union_bits);
  state.counters["filtered_lpms"] = static_cast<double>(filtered_lpms);
}
BENCHMARK(BM_CandidateExchange);

// One fault-free kFull Run of LQ7 over the fixture's 4 hash sites. Reports
// the bytes of the two ledger stages Alg. 2 and Alg. 3 ship (`lec_bytes`,
// `lpm_bytes`) and the answers (`matches`), exact figures the CI gate pins:
// a feature or LPM row that grows, or a change to what ships, fails.
void BM_StageShipment(benchmark::State& state) {
  MicroFixture& f = Fixture();
  DistributedEngine engine(&f.partitioning);
  QueryOutcome outcome;
  for (auto _ : state) {
    outcome = engine.Run({f.query, EngineMode::kFull});
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["lec_bytes"] =
      static_cast<double>(outcome.stats.lec_shipment_bytes);
  state.counters["lpm_bytes"] =
      static_cast<double>(outcome.stats.lpm_shipment_bytes);
  state.counters["matches"] = static_cast<double>(outcome.matches.size());
}
BENCHMARK(BM_StageShipment);

void BM_CentralizedMatch(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    auto matches = MatchQuery(f.oracle_store, f.rq);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_CentralizedMatch);

// Reports its LPM count, an exact figure the CI gate pins.
void BM_EnumerateLpms(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const Fragment& fragment = f.partitioning.fragments()[0];
  size_t count = 0;
  for (auto _ : state) {
    auto lpms = EnumerateLocalPartialMatches(fragment, *f.stores[0], f.rq);
    count = lpms.size();
    benchmark::DoNotOptimize(lpms);
  }
  state.counters["lpms"] = static_cast<double>(count);
}
BENCHMARK(BM_EnumerateLpms);

void BM_ComputeLecFeatures(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    auto features = ComputeLecFeatures(f.lpms);
    benchmark::DoNotOptimize(features);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.lpms.size()));
}
BENCHMARK(BM_ComputeLecFeatures);

// The chain joins' probe: every feature of the fixture against each
// candidate CrossingIndex::Candidates lists for it in every LECSign group
// whose sign is disjoint from its own, the pairs a chain join can probe.
// The pairs are listed once, outside the timed loop. Reports the pair count
// and how many are joinable, exact figures the CI gate pins; the time per
// item is the cost of one probe.
void BM_FeaturesJoinable(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const std::vector<LecFeature>& features = f.features.features;
  const std::vector<std::vector<uint32_t>> groups = GroupBySign(features);
  const CrossingIndex<LecFeature> index(features, groups);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<uint32_t> candidates;
  for (uint32_t a = 0; a < features.size(); ++a) {
    for (uint32_t g = 0; g < groups.size(); ++g) {
      if ((features[a].sign & features[groups[g].front()].sign) != 0) continue;
      index.Candidates(features[a].crossing, g, &candidates);
      for (uint32_t b : candidates) pairs.emplace_back(a, b);
    }
  }
  size_t joinable = 0;
  for (auto _ : state) {
    joinable = 0;
    for (const auto& [a, b] : pairs) {
      joinable += FeaturesJoinable(features[a], features[b]);
    }
    benchmark::DoNotOptimize(joinable);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["joinable"] = static_cast<double>(joinable);
}
BENCHMARK(BM_FeaturesJoinable);

// The two chain-join rows report their FeaturesJoinable probe count and
// what the join produced (surviving features; materialized partials and
// crossing matches), exact and machine-independent figures the CI gate
// holds absolutely.
void BM_LecFeaturePruning(benchmark::State& state) {
  MicroFixture& f = Fixture();
  PruneResult prune;
  for (auto _ : state) {
    prune = LecFeaturePruning(f.features.features, f.query.num_vertices());
    benchmark::DoNotOptimize(prune);
  }
  state.counters["join_attempts"] = static_cast<double>(prune.join_attempts);
  state.counters["surviving"] =
      static_cast<double>(prune.surviving_features);
}
BENCHMARK(BM_LecFeaturePruning);

void BM_LecAssembly(benchmark::State& state) {
  MicroFixture& f = Fixture();
  AssemblyStats stats;
  size_t matches = 0;
  for (auto _ : state) {
    stats = AssemblyStats();
    auto result = LecAssembly(f.lpms, f.query.num_vertices(), &stats);
    matches = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["join_attempts"] = static_cast<double>(stats.join_attempts);
  state.counters["intermediate_results"] =
      static_cast<double>(stats.intermediate_results);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_LecAssembly);

void BM_BasicAssembly(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    auto matches = BasicAssembly(f.lpms, f.query.num_vertices());
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_BasicAssembly);

void BM_PatternScanAndJoin(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    Relation a = ScanPattern(f.oracle_store, f.rq, 0);
    Relation b = ScanPattern(f.oracle_store, f.rq, 1);
    Relation joined = HashJoin(a, b);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_PatternScanAndJoin);

void BM_BitvectorFilter(benchmark::State& state) {
  BitvectorFilter filter;
  for (uint64_t i = 0; i < 10000; ++i) filter.Insert(i * 2654435761u);
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(probe++));
  }
}
BENCHMARK(BM_BitvectorFilter);

void BM_FullEngineExecute(benchmark::State& state) {
  MicroFixture& f = Fixture();
  DistributedEngine engine(&f.partitioning);
  for (auto _ : state) {
    auto matches = engine.Run({f.query, EngineMode::kFull}).matches;
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_FullEngineExecute);

}  // namespace
}  // namespace gstored

BENCHMARK_MAIN();
