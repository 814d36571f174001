// The serving layer: concurrent queries over one stateless engine must be
// byte-identical to running them serially; cancellation and deadlines stop
// at stage boundaries with a sound flagged-partial result; the plan cache
// shares one entry among instances of a template written in one vertex
// numbering (and never collides distinct predicates) while cache hits skip
// order scoring; the result cache replays exact outcomes, keeps the last
// 1,024 instances, and flushes when a fragment's finalize epoch changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query_context.h"
#include "partition/partitioners.h"
#include "rdf/dataset.h"
#include "serve/plan_cache.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/lubm.h"

namespace gstored {
namespace {

using ::gstored::serve::ExactQueryKey;
using ::gstored::serve::LruCache;
using ::gstored::serve::QueryShapeKey;
using ::gstored::serve::QueryTicket;
using ::gstored::serve::ServeOptions;
using ::gstored::serve::ServingEngine;
using ::gstored::testing::RandomConnectedQuery;
using ::gstored::testing::RandomDataset;

Workload SmallLubm() {
  LubmConfig config;
  config.universities = 2;
  config.undergrad_students_per_dept = 12;
  return MakeLubmWorkload(config);
}

const EngineMode kAllModes[] = {EngineMode::kBasic, EngineMode::kLecAssembly,
                                EngineMode::kLecPruning, EngineMode::kFull};

/// Serial ground truth through the legacy single-query path.
std::vector<Binding> Serial(DistributedEngine& engine, const QueryGraph& q,
                            EngineMode mode) {
  return engine.Run({q, mode}).matches;
}

/// Two-edge template anchored at one department constant; 8 distinct
/// instances exist in SmallLubm (2 universities x 4 departments), all
/// written in one vertex numbering.
QueryGraph DeptQuery(int univ, int dept) {
  const std::string d = "<http://www.univ" + std::to_string(univ) +
                        ".edu/dept" + std::to_string(dept) + "#dept>";
  QueryGraph q;
  q.AddEdge("?x", "<http://lubm.org/ont#worksFor>", d);
  q.AddEdge(d, "<http://lubm.org/ont#subOrganizationOf>", "?u");
  return q;
}

// ---------------------------------------------------------------------------
// Concurrent determinism: a mixed LQ1-LQ7 stream submitted from 8 client
// threads (one lane each) is byte-identical to the serial run, with every
// cache on and with the result cache off.

TEST(ServingConcurrency, MixedLubmStreamByteIdenticalToSerial) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);

  struct Expected {
    const QueryGraph* query;
    EngineMode mode;
    std::vector<Binding> matches;
  };
  std::vector<Expected> stream;
  for (const BenchmarkQuery& bq : w.queries) {
    for (EngineMode mode : kAllModes) {
      stream.push_back({&bq.query, mode, Serial(engine, bq.query, mode)});
    }
  }

  for (bool caches : {true, false}) {
    ServeOptions options;
    options.max_inflight = 4;
    options.total_slots = 8;
    options.use_result_cache = caches;
    ServingEngine server(&engine, options);

    constexpr int kClients = 8;
    constexpr int kRounds = 2;
    std::vector<std::vector<std::shared_ptr<QueryTicket>>> tickets(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = c % 3; i < stream.size(); i += 3) {
            tickets[c].push_back(server.Submit(
                *stream[i].query, {.mode = stream[i].mode, .lane = c}));
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (int c = 0; c < kClients; ++c) {
      size_t at = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = c % 3; i < stream.size(); i += 3, ++at) {
          const QueryOutcome& outcome = tickets[c][at]->Wait();
          EXPECT_TRUE(outcome.exact);
          EXPECT_EQ(outcome.matches, stream[i].matches)
              << "caches=" << caches << " client=" << c << " stream#" << i;
        }
      }
    }
  }
}

TEST(ServingConcurrency, RandomizedScenariosMatchSerial) {
  for (const auto& s : ::gstored::testing::kReferenceScenarios) {
    Rng rng(s.seed);
    auto dataset = RandomDataset(rng, s.vertices, s.edges, s.predicates);
    QueryGraph query = RandomConnectedQuery(rng, *dataset, s.query_vertices,
                                            s.query_edges);
    Partitioning p = HashPartitioner().Partition(*dataset, 3);
    DistributedEngine engine(&p);
    std::vector<Binding> expected = Serial(engine, query, EngineMode::kFull);

    ServeOptions options;
    options.max_inflight = 3;
    options.total_slots = 4;
    ServingEngine server(&engine, options);
    std::vector<std::shared_ptr<QueryTicket>> tickets;
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(server.Submit(query, {.lane = i % 3}));
    }
    for (const auto& ticket : tickets) {
      EXPECT_EQ(ticket->Wait().matches, expected) << "seed=" << s.seed;
    }
  }
}

// Two engines with private pools (EngineOptions::pool) serving at the same
// time must not interfere — each server's results stay byte-identical.
TEST(ServingConcurrency, TwoEnginesWithSeparatePools) {
  Workload w = SmallLubm();
  Partitioning p1 = HashPartitioner().Partition(*w.dataset, 3);
  Partitioning p2 = SemanticHashPartitioner().Partition(*w.dataset, 4);
  ThreadPool pool1(2);
  ThreadPool pool2(2);
  EngineOptions opts1;
  opts1.pool = &pool1;
  opts1.num_threads = 3;
  EngineOptions opts2;
  opts2.pool = &pool2;
  opts2.num_threads = 3;
  DistributedEngine engine1(&p1, opts1);
  DistributedEngine engine2(&p2, opts2);

  std::vector<std::vector<Binding>> expected;
  for (const BenchmarkQuery& bq : w.queries) {
    expected.push_back(Serial(engine1, bq.query, EngineMode::kFull));
    // Same dataset, different partitioning: identical final answers.
    ASSERT_EQ(Serial(engine2, bq.query, EngineMode::kFull), expected.back())
        << bq.name;
  }

  ServeOptions so1;
  so1.max_inflight = 2;
  ServeOptions so2;
  so2.max_inflight = 2;
  ServingEngine server1(&engine1, so1);
  ServingEngine server2(&engine2, so2);
  std::vector<std::shared_ptr<QueryTicket>> t1, t2;
  for (const BenchmarkQuery& bq : w.queries) {
    t1.push_back(server1.Submit(bq.query));
    t2.push_back(server2.Submit(bq.query));
  }
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i]->Wait().matches, expected[i]);
    EXPECT_EQ(t2[i]->Wait().matches, expected[i]);
  }
}

// ---------------------------------------------------------------------------
// Cancellation / deadlines.

TEST(ServingCancellation, PreCancelledContextReturnsFlaggedEmpty) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  CancelToken cancel;
  cancel.Cancel();
  QuerySession session(engine.num_sites());
  QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  ctx.cancel = &cancel;
  QueryRequest request(w.queries[0].query, EngineMode::kFull, ctx);
  QueryOutcome outcome = engine.Run(request);
  EXPECT_TRUE(outcome.stats.cancelled);
  EXPECT_FALSE(outcome.exact);
  EXPECT_TRUE(outcome.matches.empty());
  // Aborting between stages never tears the session ledger.
  EXPECT_EQ(session.ledger.TotalBytes(), 0u);
}

TEST(ServingCancellation, ZeroDeadlineTimesOutAsFlaggedPartial) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServingEngine server(&engine);

  auto ticket = server.Submit(w.queries[0].query, {.deadline_ms = 0.0});
  const QueryOutcome& outcome = ticket->Wait();
  EXPECT_TRUE(ticket->stats().cancelled);
  EXPECT_FALSE(outcome.exact);
  EXPECT_TRUE(outcome.matches.empty());
}

TEST(ServingCancellation, CancelledStreamYieldsExactPrefixOrFlaggedSubset) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  std::vector<std::vector<Binding>> expected;
  for (const BenchmarkQuery& bq : w.queries) {
    expected.push_back(Serial(engine, bq.query, EngineMode::kFull));
  }

  ServeOptions options;
  options.max_inflight = 1;  // force queueing so Cancel() can beat admission
  ServingEngine server(&engine, options);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (const BenchmarkQuery& bq : w.queries) {
    tickets.push_back(server.Submit(bq.query));
  }
  for (size_t i = 1; i < tickets.size(); i += 2) tickets[i]->Cancel();

  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& outcome = tickets[i]->Wait();
    if (tickets[i]->stats().cancelled) {
      EXPECT_FALSE(outcome.exact);
      // A stage-boundary abort returns a sound subset of the true answer.
      for (const Binding& b : outcome.matches) {
        EXPECT_TRUE(std::binary_search(expected[i].begin(), expected[i].end(),
                                       b));
      }
    } else {
      EXPECT_TRUE(outcome.exact);
      EXPECT_EQ(outcome.matches, expected[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan cache: the shape key and hit semantics.

QueryGraph TripleChain(const std::string& a, const std::string& pa,
                       const std::string& b, const std::string& pb,
                       const std::string& c) {
  QueryGraph q;
  q.AddEdge(a, pa, b);
  q.AddEdge(b, pb, c);
  return q;
}

TEST(PlanCacheShapeKey, OneNumberingSharesOneKey) {
  // Same template under one vertex numbering: different variable names and
  // different constants share a key.
  QueryGraph a = TripleChain("?x", "<p1>", "?y", "<p2>", "<c1>");
  QueryGraph b = TripleChain("?u", "<p1>", "?v", "<p2>", "<c2>");
  EXPECT_EQ(QueryShapeKey(a), QueryShapeKey(b));

  // The patterns added in the opposite order number the vertices
  // differently, so the cached orders would not fit: a key of its own.
  QueryGraph c;
  c.AddEdge("?v", "<p2>", "<c3>");
  c.AddEdge("?u", "<p1>", "?v");
  EXPECT_NE(QueryShapeKey(a), QueryShapeKey(c));

  // Exact keys must all differ (constants and numbering are significant).
  EXPECT_NE(ExactQueryKey(a), ExactQueryKey(b));
  EXPECT_NE(ExactQueryKey(a), ExactQueryKey(c));
  EXPECT_NE(ExactQueryKey(b), ExactQueryKey(c));
}

TEST(PlanCacheShapeKey, DistinctPredicatesNeverCollide) {
  QueryGraph a = TripleChain("?x", "<p1>", "?y", "<p2>", "<c>");
  QueryGraph b = TripleChain("?x", "<p1>", "?y", "<p3>", "<c>");
  QueryGraph c = TripleChain("?x", "<p1>", "?y", "?p", "<c>");
  EXPECT_NE(QueryShapeKey(a), QueryShapeKey(b));
  EXPECT_NE(QueryShapeKey(a), QueryShapeKey(c));

  // Variable vs constant vertices are shape-significant too.
  QueryGraph d = TripleChain("?x", "<p1>", "?y", "<p2>", "?z");
  EXPECT_NE(QueryShapeKey(a), QueryShapeKey(d));
}

TEST(PlanCacheShapeKey, RenamingVariablesKeepsTheKey) {
  // A 4-cycle written in one order: renaming its vertex variables and its
  // predicate variable changes the exact key but not the shape key.
  auto cycle = [](const std::vector<std::string>& v, const std::string& p) {
    QueryGraph q;
    for (size_t i = 0; i < v.size(); ++i) {
      q.AddEdge(v[i], i == 0 ? p : "<p>", v[(i + 1) % v.size()]);
    }
    return q;
  };
  QueryGraph a = cycle({"?a", "?b", "?c", "?d"}, "?p");
  QueryGraph b = cycle({"?w", "?z", "?y", "?x"}, "?q");
  EXPECT_EQ(QueryShapeKey(a), QueryShapeKey(b));
  EXPECT_NE(ExactQueryKey(a), ExactQueryKey(b));
}

TEST(PlanCache, SecondInstanceHitsAndSkipsOrderScoring) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);

  ServeOptions options;
  options.max_inflight = 1;
  options.use_result_cache = false;  // force both runs through the engine
  ServingEngine server(&engine, options);

  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<Binding> expected = Serial(engine, bq.query, EngineMode::kFull);
    auto first = server.Submit(bq.query);
    EXPECT_EQ(first->Wait().matches, expected) << bq.name;
    auto second = server.Submit(bq.query);
    EXPECT_EQ(second->Wait().matches, expected) << bq.name;
    // Both executions ran with the cached plan (the first filled the entry
    // before executing), so neither scored a matching order inside the
    // engine — the whole point of the plan cache.
    EXPECT_TRUE(second->stats().plan_cache_hit) << bq.name;
    EXPECT_EQ(second->stats().order_scorings, 0u) << bq.name;
  }
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_misses, w.queries.size());
  EXPECT_EQ(counters.plan_hits, w.queries.size());

  // Control: without a plan, the engine scores orders itself.
  const QueryOutcome unplanned = engine.Run({w.queries[0].query});
  EXPECT_FALSE(unplanned.stats.plan_cache_hit);
  EXPECT_GT(unplanned.stats.order_scorings, 0u);
}

TEST(PlanCache, InstancesOfOneTemplateShareOneEntry) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 1;
  options.use_result_cache = false;
  ServingEngine server(&engine, options);

  // Two instances of one template with different constant bindings; the
  // constants are real dataset IRIs (the two generated universities), so
  // both resolve and both execute.
  std::vector<std::string> unis = {"<http://www.univ0.edu/univ>",
                                   "<http://www.univ1.edu/univ>"};
  auto instance = [](const std::string& uni) {
    QueryGraph q;
    q.AddEdge("?d", "<http://lubm.org/ont#subOrganizationOf>", uni);
    q.AddEdge("?x", "<http://lubm.org/ont#worksFor>", "?d");
    return q;
  };
  auto t1 = server.Submit(instance(unis[0]));
  t1->Wait();
  auto t2 = server.Submit(instance(unis[1]));
  t2->Wait();
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_misses, 1u);
  EXPECT_EQ(counters.plan_hits, 1u);
  EXPECT_EQ(t2->stats().order_scorings, 0u);

  // Distinct answers — the shared plan is heuristic-only, results are the
  // instance's own.
  DistributedEngine oracle(&p);
  EXPECT_EQ(t1->stats().num_matches,
            Serial(oracle, instance(unis[0]), EngineMode::kFull).size());
}

TEST(PlanCache, DifferentlyNumberedInstancesDoNotShareAPlan) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 1;
  options.use_result_cache = false;
  ServingEngine server(&engine, options);

  // One non-star template (so island tasks and unit orders are replayed),
  // written with its patterns in both orders: the two texts number the
  // vertices differently, so each fills its own entry, and each answer's
  // binding columns follow its own numbering.
  const std::string ont = "<http://lubm.org/ont#";
  const std::vector<std::vector<std::string>> patterns = {
      {"?s", ont + "takesCourse>", "?c"},
      {"?p", ont + "teacherOf>", "?c"},
      {"?p", ont + "worksFor>", "?d"}};
  QueryGraph forward;
  for (const auto& t : patterns) forward.AddEdge(t[0], t[1], t[2]);
  QueryGraph backward;
  for (auto t = patterns.rbegin(); t != patterns.rend(); ++t) {
    backward.AddEdge((*t)[0], (*t)[1], (*t)[2]);
  }
  ASSERT_FALSE(forward.IsStar());
  ASSERT_NE(QueryShapeKey(forward), QueryShapeKey(backward));

  for (const QueryGraph* q : {&forward, &backward}) {
    const std::vector<Binding> expected = Serial(engine, *q, EngineMode::kFull);
    ASSERT_FALSE(expected.empty());
    auto ticket = server.Submit(*q);
    EXPECT_EQ(ticket->Wait().matches, expected);
    EXPECT_TRUE(ticket->stats().plan_cache_hit);
    EXPECT_EQ(ticket->stats().order_scorings, 0u);
  }
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_misses, 2u);
  EXPECT_EQ(counters.plan_hits, 0u);
}

TEST(PlanCache, UnplannedFirstInstanceDoesNotMakeTheNextFillAHit) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 1;
  options.use_result_cache = false;
  ServingEngine server(&engine, options);

  // The first instance names a department missing from the dictionary: it
  // resolves impossible, fills nothing and runs unplanned. The second fills
  // the entry itself, so only the third replays a plan another filled.
  const std::string ont = "<http://lubm.org/ont#";
  auto instance = [&ont](const std::string& dept) {
    QueryGraph q;
    q.AddEdge("?s", ont + "takesCourse>", "?c");
    q.AddEdge("?p", ont + "teacherOf>", "?c");
    q.AddEdge("?p", ont + "worksFor>", dept);
    return q;
  };
  for (const std::string dept : {"<http://www.univ9.edu/dept9#dept>",
                                 "<http://www.univ0.edu/dept0#dept>",
                                 "<http://www.univ1.edu/dept0#dept>"}) {
    const QueryGraph q = instance(dept);
    auto ticket = server.Submit(q);
    EXPECT_EQ(ticket->Wait().matches, Serial(engine, q, EngineMode::kFull))
        << dept;
  }
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.plan_misses, 2u);
  EXPECT_EQ(counters.plan_hits, 1u);
}

// ---------------------------------------------------------------------------
// Result cache and invalidation.

TEST(ResultCache, HitEqualsMissAcrossAllLubmQueriesAndModes) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 4);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 2;
  ServingEngine server(&engine, options);

  for (const BenchmarkQuery& bq : w.queries) {
    for (EngineMode mode : kAllModes) {
      std::vector<Binding> expected = Serial(engine, bq.query, mode);
      auto miss = server.Submit(bq.query, {.mode = mode});
      EXPECT_EQ(miss->Wait().matches, expected) << bq.name;
      EXPECT_FALSE(miss->stats().result_cache_hit);
      auto hit = server.Submit(bq.query, {.mode = mode});
      EXPECT_EQ(hit->Wait().matches, expected) << bq.name;
      EXPECT_TRUE(hit->stats().result_cache_hit)
          << bq.name << " " << EngineModeName(mode);
    }
  }
  // One engine execution per (query, mode); every repeat was a cache hit.
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.executed, w.queries.size() * 4);
  EXPECT_EQ(counters.result_hits, w.queries.size() * 4);
}

TEST(ResultCache, FinalizeEpochChangeFlushesAllCaches) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServingEngine server(&engine);
  const QueryGraph& q = w.queries[1].query;

  server.Submit(q)->Wait();
  server.Submit(q)->Wait();
  EXPECT_EQ(server.counters().executed, 1u);
  EXPECT_EQ(server.counters().result_hits, 1u);

  // Re-finalizing without changes must NOT flush (epoch only bumps on a
  // genuine content change).
  const_cast<RdfGraph&>(p.fragments()[0].graph()).Finalize();
  server.Submit(q)->Wait();
  EXPECT_EQ(server.counters().epoch_flushes, 0u);
  EXPECT_EQ(server.counters().result_hits, 2u);

  // Re-adding an existing triple and finalizing bumps the epoch but leaves
  // the graph byte-identical (Finalize dedups), so the post-flush result is
  // still assertable against the serial answer.
  RdfGraph& g = const_cast<RdfGraph&>(p.fragments()[0].graph());
  ASSERT_GT(g.num_triples(), 0u);
  g.AddTriple(g.triples()[0]);
  g.Finalize();

  auto after = server.Submit(q);
  EXPECT_EQ(after->Wait().matches, Serial(engine, q, EngineMode::kFull));
  EXPECT_FALSE(after->stats().result_cache_hit);
  EXPECT_EQ(server.counters().epoch_flushes, 1u);
  EXPECT_EQ(server.counters().executed, 2u);

  // Explicit invalidation also forces re-execution.
  server.Submit(q)->Wait();
  server.InvalidateCaches();
  server.Submit(q)->Wait();
  EXPECT_EQ(server.counters().executed, 3u);
}

TEST(ResultCache, KeepsTheLast1024Instances) {
  // One real instance, then 1,023 distinct instances whose department is
  // missing from the dictionary: they resolve impossible, run in
  // microseconds and are clean, so each is admitted. The real instance is
  // then the oldest of 1,024 entries and must still be a hit.
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 1;
  ServingEngine server(&engine, options);

  const QueryGraph real = DeptQuery(0, 0);
  const std::vector<Binding> expected = Serial(engine, real, EngineMode::kFull);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(server.Submit(real)->Wait().matches, expected);
  for (int dept = 0; dept < 1023; ++dept) {
    auto missing = server.Submit(DeptQuery(9, dept));
    ASSERT_TRUE(missing->Wait().exact) << dept;
    ASSERT_TRUE(missing->Wait().matches.empty()) << dept;
  }
  auto repeat = server.Submit(real);
  EXPECT_EQ(repeat->Wait().matches, expected);
  EXPECT_TRUE(repeat->stats().result_cache_hit);
  ServingEngine::Counters counters = server.counters();
  EXPECT_EQ(counters.executed, 1024u);
  EXPECT_EQ(counters.result_hits, 1u);
}

// ---------------------------------------------------------------------------
// Infrastructure units.

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  int v = 0;
  EXPECT_TRUE(cache.Get("a", &v));  // refresh a; b is now oldest
  cache.Put("c", 3);
  EXPECT_FALSE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(cache.Get("c", &v));
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", &v));
}

TEST(LruCacheTest, ByteBoundEvictsTailUntilUnderBudget) {
  // Weigher = the value itself, so weights are explicit. Budget 100 bytes,
  // generous entry capacity: the byte bound is the active constraint.
  LruCache<int> cache(64, 100, [](const int& v) {
    return static_cast<size_t>(v);
  });
  cache.Put("a", 40);
  cache.Put("b", 40);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.size(), 2u);

  cache.Put("c", 40);  // 120 > 100: evict the oldest ("a")
  int v = 0;
  EXPECT_FALSE(cache.Get("a", &v));
  EXPECT_TRUE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("c", &v));
  EXPECT_EQ(cache.bytes(), 80u);

  // Overwriting re-weighs: growing "b" to 70 pushes the total to 110 and
  // evicts "c" (the older of the two after b's refresh).
  cache.Put("b", 70);
  EXPECT_FALSE(cache.Get("c", &v));
  EXPECT_EQ(cache.bytes(), 70u);

  // A single entry above the whole budget stays resident (never thrash to
  // empty), and displaces everything else.
  cache.Put("huge", 500);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Get("huge", &v));
  EXPECT_EQ(cache.bytes(), 500u);

  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, ByteBoundedEvictionTracksOutcomeBytes) {
  // Two outcomes under a byte budget sized for roughly one of them:
  // inserting the second evicts the first (LRU), and bytes() tracks the
  // resident match payload.
  serve::ResultCache cache(/*capacity=*/1024, /*capacity_bytes=*/4096);

  auto make_outcome = [](size_t rows, size_t width) {
    QueryOutcome outcome;
    outcome.matches.assign(rows, Binding(width, TermId{7}));
    outcome.sites.resize(3);
    outcome.stats.num_matches = rows;
    outcome.stats.partial_eval_sites.resize(4);
    return outcome;
  };
  ASSERT_TRUE(cache.Put("q1", EngineMode::kFull, make_outcome(60, 8),
                        cache.generation()));
  const size_t one_entry = cache.bytes();
  EXPECT_GT(one_entry, 60 * 8 * sizeof(TermId));
  EXPECT_LE(one_entry, 4096u);

  ASSERT_TRUE(cache.Put("q2", EngineMode::kFull, make_outcome(60, 8),
                        cache.generation()));
  EXPECT_EQ(cache.size(), 1u);  // q1 was evicted to stay under budget
  EXPECT_LE(cache.bytes(), 4096u);

  QueryOutcome out;
  EXPECT_FALSE(cache.Get("q1", EngineMode::kFull, &out));
  EXPECT_TRUE(cache.Get("q2", EngineMode::kFull, &out));
  EXPECT_EQ(out.matches.size(), 60u);
  EXPECT_EQ(out.sites.size(), 3u);
  // An entry keeps only what a hit returns: the filling run's stats (and
  // their heap blocks, which the weigher does not count) are not stored.
  EXPECT_TRUE(out.stats.partial_eval_sites.empty());
  EXPECT_EQ(out.stats.num_matches, 0u);

  // Small outcomes coexist under the same budget (weights are per-entry).
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  ASSERT_TRUE(cache.Put("a", EngineMode::kFull, make_outcome(4, 4),
                        cache.generation()));
  ASSERT_TRUE(cache.Put("b", EngineMode::kFull, make_outcome(4, 4),
                        cache.generation()));
  EXPECT_EQ(cache.size(), 2u);

  // The mode is part of the key: one instance cached under two modes weighs
  // (and evicts) as two entries.
  ASSERT_TRUE(cache.Put("a", EngineMode::kBasic, make_outcome(4, 4),
                        cache.generation()));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.Get("a", EngineMode::kFull, &out));
  EXPECT_TRUE(cache.Get("a", EngineMode::kBasic, &out));
}

TEST(ResultCacheTest, ByteBoundedResultCacheStaysCorrectUnderServing) {
  // A tiny byte budget forces constant result-cache eviction; answers must
  // stay byte-identical (a miss just re-executes).
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  ServeOptions options;
  options.max_inflight = 1;
  options.result_cache_capacity_bytes = 1024;
  ServingEngine server(&engine, options);
  for (const BenchmarkQuery& bq : w.queries) {
    std::vector<Binding> expected = Serial(engine, bq.query, EngineMode::kFull);
    EXPECT_EQ(server.Submit(bq.query)->Wait().matches, expected) << bq.name;
    EXPECT_EQ(server.Submit(bq.query)->Wait().matches, expected) << bq.name;
  }
}

// ---------------------------------------------------------------------------
// In-flight coalescing: one leader executes a cold burst of identical
// queries, followers receive byte-identical copies; unclean leaders release
// their followers; follower cancellation never propagates to the leader.

template <typename Pred>
void SpinUntil(Pred pred) {
  while (!pred()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(Coalescing, IdenticalColdBurstExecutesOnceByteIdentical) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  const QueryGraph& q = w.queries[1].query;
  std::vector<Binding> expected = Serial(engine, q, EngineMode::kFull);

  // The hook parks the first (and only) leader after it executed, so the
  // rest of the burst provably arrives while the leader is in flight.
  std::atomic<bool> gate_closed{true};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 4;
  options.use_result_cache = false;  // only coalescing can dedup the burst
  options.post_execute_hook = [&] {
    if (in_hook.fetch_add(1) == 0) {
      SpinUntil([&] { return !gate_closed.load(); });
    }
  };
  ServingEngine server(&engine, options);

  constexpr size_t kBurst = 6;
  auto leader = server.Submit(q);
  SpinUntil([&] { return in_hook.load() >= 1; });
  std::vector<std::shared_ptr<QueryTicket>> followers;
  for (size_t i = 1; i < kBurst; ++i) followers.push_back(server.Submit(q));
  SpinUntil(
      [&] { return server.counters().coalesce_attached == kBurst - 1; });
  gate_closed.store(false);

  EXPECT_EQ(leader->Wait().matches, expected);
  EXPECT_TRUE(leader->Wait().exact);
  EXPECT_FALSE(leader->stats().coalesced_hit);
  for (const auto& f : followers) {
    EXPECT_EQ(f->Wait().matches, expected);
    EXPECT_TRUE(f->Wait().exact);
    EXPECT_TRUE(f->stats().coalesced_hit);
    EXPECT_EQ(f->stats().num_matches, expected.size());
  }
  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.coalesce_attached, kBurst - 1);
  EXPECT_EQ(c.coalesced, kBurst - 1);
  EXPECT_EQ(c.coalesce_released, 0u);

  // Ablation: the same burst with coalescing off executes every duplicate —
  // the dogpile this feature closes.
  ServeOptions off = options;
  off.coalesce_inflight = false;
  off.post_execute_hook = nullptr;
  ServingEngine dogpiled(&engine, off);
  std::vector<std::shared_ptr<QueryTicket>> dup;
  for (size_t i = 0; i < kBurst; ++i) dup.push_back(dogpiled.Submit(q));
  for (const auto& t : dup) EXPECT_EQ(t->Wait().matches, expected);
  EXPECT_EQ(dogpiled.counters().executed, kBurst);
}

TEST(Coalescing, MixedStreamExecutesEachDistinctQueryOnce) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  std::vector<std::vector<Binding>> expected;
  for (const BenchmarkQuery& bq : w.queries) {
    expected.push_back(Serial(engine, bq.query, EngineMode::kFull));
  }

  ServeOptions options;
  options.max_inflight = 4;
  ServingEngine server(&engine, options);

  // 4 duplicates of each query, interleaved across 4 client threads. Every
  // duplicate is served by exactly one of: its own execution (the first
  // leader), coalescing onto an in-flight leader, or a result-cache hit —
  // so the engine runs each distinct query exactly once, no matter how the
  // dispatch interleaves.
  constexpr int kClients = 4;
  std::vector<std::vector<std::shared_ptr<QueryTicket>>> tickets(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < w.queries.size(); ++i) {
        tickets[c].push_back(server.Submit(w.queries[i].query, {.lane = c}));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < w.queries.size(); ++i) {
      const QueryOutcome& outcome = tickets[c][i]->Wait();
      EXPECT_TRUE(outcome.exact) << "client=" << c << " query=" << i;
      EXPECT_EQ(outcome.matches, expected[i])
          << "client=" << c << " query=" << i;
    }
  }
  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.executed, w.queries.size());
  EXPECT_EQ(c.executed + c.result_hits + c.coalesced,
            w.queries.size() * kClients);
}

TEST(Coalescing, FollowerCancelDetachesWithoutCancellingLeader) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  const QueryGraph& q = w.queries[1].query;
  std::vector<Binding> expected = Serial(engine, q, EngineMode::kFull);

  std::atomic<bool> gate_closed{true};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 2;
  options.use_result_cache = false;
  options.post_execute_hook = [&] {
    if (in_hook.fetch_add(1) == 0) {
      SpinUntil([&] { return !gate_closed.load(); });
    }
  };
  ServingEngine server(&engine, options);

  auto leader = server.Submit(q);
  SpinUntil([&] { return in_hook.load() >= 1; });
  auto follower = server.Submit(q);
  SpinUntil([&] { return server.counters().coalesce_attached == 1; });
  follower->Cancel();  // must detach the follower, not kill the leader
  gate_closed.store(false);

  EXPECT_EQ(leader->Wait().matches, expected);
  EXPECT_TRUE(leader->Wait().exact);
  EXPECT_FALSE(leader->stats().cancelled);

  follower->Wait();
  EXPECT_TRUE(follower->stats().cancelled);
  EXPECT_FALSE(follower->Wait().exact);
  EXPECT_TRUE(follower->Wait().matches.empty());

  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.coalesce_attached, 1u);
  EXPECT_EQ(c.coalesced, 0u);  // a cancelled follower is not a served copy
}

TEST(Coalescing, DegradedLeaderReleasesFollowersToExecute) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);

  // Site 0 is dead from the first stage and there are no replicas to hedge
  // from: every run of this query is a flagged partial — never clean, so
  // nothing may fan out.
  EngineOptions eopts;
  eopts.hedge_local = false;
  eopts.fault_plan.site_overrides[0].crash_at_stage = 0;
  DistributedEngine engine(&p, eopts);
  // A non-star query, so the crashed site's stage data is actually needed
  // (stars are answered locally and would stay exact).
  const QueryGraph& q = w.queries[0].query;
  ASSERT_FALSE(engine.Run({q, EngineMode::kFull}).exact);

  std::atomic<bool> gate_closed{true};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 2;
  options.use_result_cache = false;
  options.post_execute_hook = [&] {
    if (in_hook.fetch_add(1) == 0) {
      SpinUntil([&] { return !gate_closed.load(); });
    }
  };
  ServingEngine server(&engine, options);

  auto leader = server.Submit(q);
  SpinUntil([&] { return in_hook.load() >= 1; });
  auto f1 = server.Submit(q);
  auto f2 = server.Submit(q);
  SpinUntil([&] { return server.counters().coalesce_attached >= 2; });
  gate_closed.store(false);

  // The leader's partial outcome must not be shared: every follower is
  // released and executes (and degrades) on its own.
  EXPECT_FALSE(leader->Wait().exact);
  EXPECT_FALSE(f1->Wait().exact);
  EXPECT_FALSE(f2->Wait().exact);
  EXPECT_FALSE(f1->stats().coalesced_hit);
  EXPECT_FALSE(f2->stats().coalesced_hit);

  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.executed, 3u);
  EXPECT_EQ(c.coalesced, 0u);
  // A released follower may transiently re-attach to another released
  // follower's execution, so released/attached are lower bounds.
  EXPECT_GE(c.coalesce_released, 2u);
  EXPECT_GE(c.coalesce_attached, 2u);
}

// ---------------------------------------------------------------------------
// Generation-stamped cache admission: an epoch flush between a query's
// dispatch and its cache put must drop the put — the computed answer
// describes the pre-flush store.

TEST(CacheInvalidation, StalePutAfterEpochFlushIsDropped) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);
  const QueryGraph& qa = w.queries[0].query;
  const QueryGraph& qb = w.queries[2].query;
  std::vector<Binding> expected_a = Serial(engine, qa, EngineMode::kFull);

  // While query A is mid-flight (executed, outcome not yet admitted), bump
  // a fragment's finalize epoch and push query B through a second
  // dispatcher. B's dispatch consumes the epoch change and flushes all
  // caches — so when A's put finally lands, nothing else will flush again:
  // without the generation stamp, A's stale outcome would survive in the
  // cache and be replayed. (Re-adding an existing triple keeps the graph
  // byte-identical, so "stale" is observable purely through the counters.)
  std::atomic<int> in_hook{0};
  ServingEngine* srv = nullptr;
  ServeOptions options;
  options.max_inflight = 2;
  options.post_execute_hook = [&] {
    if (in_hook.fetch_add(1) == 0) {
      RdfGraph& g = const_cast<RdfGraph&>(p.fragments()[0].graph());
      g.AddTriple(g.triples()[0]);
      g.Finalize();
      srv->Submit(qb)->Wait();
    }
  };
  ServingEngine server(&engine, options);
  srv = &server;

  auto a = server.Submit(qa);
  EXPECT_EQ(a->Wait().matches, expected_a);

  ServingEngine::Counters mid = server.counters();
  EXPECT_EQ(mid.executed, 2u);       // A and B
  EXPECT_EQ(mid.epoch_flushes, 1u);  // consumed by B's dispatch

  // A again: its stale put was dropped, so this is a miss that re-executes.
  auto again = server.Submit(qa);
  EXPECT_EQ(again->Wait().matches, expected_a);
  EXPECT_FALSE(again->stats().result_cache_hit);
  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.executed, 3u);
  EXPECT_EQ(c.result_hits, 0u);

  // Control: the re-execution's put carried the current generation, so the
  // cache works again.
  auto hit = server.Submit(qa);
  EXPECT_EQ(hit->Wait().matches, expected_a);
  EXPECT_TRUE(hit->stats().result_cache_hit);
}

// ---------------------------------------------------------------------------
// Admission: drained lanes are erased (no unbounded growth under lane
// churn), round-robin rotation survives erasure, each lane is FIFO, and a
// burst on one lane never runs ahead of another lane's query.

TEST(Admission, DrainedLanesAreErasedAndRotationHolds) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  std::atomic<bool> gate_closed{true};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 1;
  options.post_execute_hook = [&] {
    if (in_hook.fetch_add(1) == 0) {
      SpinUntil([&] { return !gate_closed.load(); });
    }
  };
  ServingEngine server(&engine, options);

  // Hold the single dispatcher on a blocker (lane 0), queue on lanes 3, 1,
  // 2, then release: round-robin resumes after lane 0 and serves 1, 2, 3.
  auto blocker = server.Submit(w.queries[0].query);
  SpinUntil([&] { return in_hook.load() >= 1; });
  auto on3 = server.Submit(DeptQuery(0, 0), {.lane = 3});
  auto on1 = server.Submit(DeptQuery(0, 1), {.lane = 1});
  auto on2 = server.Submit(DeptQuery(0, 2), {.lane = 2});
  EXPECT_EQ(server.active_lanes(), 3u);
  gate_closed.store(false);

  blocker->Wait();
  on1->Wait();
  on2->Wait();
  on3->Wait();
  EXPECT_LT(on1->dispatch_sequence(), on2->dispatch_sequence());
  EXPECT_LT(on2->dispatch_sequence(), on3->dispatch_sequence());
  EXPECT_EQ(server.active_lanes(), 0u);

  // Churning lane ids never accumulates lane state: each drained lane's
  // entry is erased, so the map is empty again after every wait.
  for (int lane : {7, 12345, 7, 890, 2000000}) {
    server.Submit(DeptQuery(1, 0), {.lane = lane})->Wait();
    EXPECT_EQ(server.active_lanes(), 0u) << "lane=" << lane;
  }
}

TEST(PlanCache, ConcurrentFirstSightFillsOnce) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  ServeOptions options;
  options.max_inflight = 8;
  options.use_result_cache = false;
  ServingEngine server(&engine, options);

  // All 8 instances of one never-seen template at once: exactly
  // one dispatcher fills the shared entry (under the entry's fill mutex),
  // the other 7 wait for it and replay — one miss, seven hits, zero
  // duplicate fill work, and every run skips in-engine order scoring.
  std::vector<std::pair<QueryGraph, std::vector<Binding>>> instances;
  for (int u = 0; u < 2; ++u) {
    for (int d = 0; d < 4; ++d) {
      QueryGraph q = DeptQuery(u, d);
      instances.emplace_back(q, Serial(engine, q, EngineMode::kFull));
    }
  }
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (const auto& instance : instances) {
    tickets.push_back(server.Submit(instance.first));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryOutcome& outcome = tickets[i]->Wait();
    EXPECT_TRUE(outcome.exact) << "instance=" << i;
    EXPECT_EQ(outcome.matches, instances[i].second) << "instance=" << i;
    EXPECT_EQ(outcome.stats.order_scorings, 0u) << "instance=" << i;
  }
  ServingEngine::Counters c = server.counters();
  EXPECT_EQ(c.plan_misses, 1u);
  EXPECT_EQ(c.plan_hits, instances.size() - 1);
  EXPECT_EQ(c.executed, instances.size());
}

TEST(Admission, LaneIsFifoRegardlessOfTemplateCost) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  // Same shape, very different estimated cost: the dept-anchored template
  // starts from one constant; the all-variable template starts from every
  // employment edge in the dataset.
  QueryGraph expensive;
  expensive.AddEdge("?x", "<http://lubm.org/ont#worksFor>", "?d");
  expensive.AddEdge("?d", "<http://lubm.org/ont#subOrganizationOf>", "?u");
  const QueryGraph cheap = DeptQuery(0, 0);

  std::atomic<bool> gate_closed{false};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 1;
  options.post_execute_hook = [&] {
    in_hook.fetch_add(1);
    SpinUntil([&] { return !gate_closed.load(); });
  };
  ServingEngine server(&engine, options);

  // Warm both templates into the plan cache, then hold the dispatcher on a
  // cold blocker and queue expensive-then-cheap on one lane: the cheap
  // query does not overtake the earlier-submitted expensive one.
  server.Submit(expensive)->Wait();
  server.Submit(cheap)->Wait();
  gate_closed.store(true);
  auto blocker = server.Submit(w.queries[0].query);
  SpinUntil([&] { return in_hook.load() >= 3; });
  auto exp2 = server.Submit(expensive);
  auto chp2 = server.Submit(DeptQuery(0, 1));
  gate_closed.store(false);

  blocker->Wait();
  exp2->Wait();
  chp2->Wait();
  EXPECT_LT(exp2->dispatch_sequence(), chp2->dispatch_sequence());
}

TEST(Admission, BurstOnOneLaneDoesNotRunAheadOfAnotherLane) {
  Workload w = SmallLubm();
  Partitioning p = HashPartitioner().Partition(*w.dataset, 3);
  DistributedEngine engine(&p);

  auto suborg = [](int univ, int dept) {
    QueryGraph q;
    q.AddEdge("<http://www.univ" + std::to_string(univ) + ".edu/dept" +
                  std::to_string(dept) + "#dept>",
              "<http://lubm.org/ont#subOrganizationOf>", "?u");
    return q;
  };

  std::atomic<bool> gate_closed{false};
  std::atomic<int> in_hook{0};
  ServeOptions options;
  options.max_inflight = 1;
  options.post_execute_hook = [&] {
    in_hook.fetch_add(1);
    SpinUntil([&] { return !gate_closed.load(); });
  };
  ServingEngine server(&engine, options);

  // Warm both templates, then queue two dept queries on lane 1 and one
  // single-edge query on lane 2. Lane selection is round-robin, so the
  // lane-2 query runs between the lane-1 ones.
  server.Submit(DeptQuery(0, 0))->Wait();
  server.Submit(suborg(0, 0))->Wait();
  gate_closed.store(true);
  auto blocker = server.Submit(w.queries[0].query);  // lane 0
  SpinUntil([&] { return in_hook.load() >= 3; });
  auto lane1_a = server.Submit(DeptQuery(0, 1), {.lane = 1});
  auto lane1_b = server.Submit(DeptQuery(0, 2), {.lane = 1});
  auto lane2 = server.Submit(suborg(0, 1), {.lane = 2});
  gate_closed.store(false);

  blocker->Wait();
  lane1_a->Wait();
  lane1_b->Wait();
  lane2->Wait();
  EXPECT_LT(lane1_a->dispatch_sequence(), lane2->dispatch_sequence());
  EXPECT_LT(lane2->dispatch_sequence(), lane1_b->dispatch_sequence());
}

// ---------------------------------------------------------------------------
// Plan-cache keys of shapes past 255 vertices: the key writes every
// position in full, so position 257 never aliases position 1 and two
// different shapes never share an entry.

TEST(PlanCache, ShapesAbove255VerticesNeverShareAKey) {
  auto iri = [](const std::string& name) {
    return "<http://ex.org/" + name + ">";
  };
  auto leaf = [&](int i) { return iri("o" + std::to_string(i)); };
  Dataset dataset;
  dataset.AddTripleLexical(iri("s"), iri("p"), leaf(1));
  dataset.AddTripleLexical(iri("s"), iri("p"), leaf(257));
  for (int i = 2; i <= 257; ++i) {
    dataset.AddTripleLexical(iri("s"), iri("q"), leaf(i));
  }
  dataset.Finalize();
  // One site: planning a 258-vertex star costs a fraction of a second per
  // site, and the key collision does not depend on the site count.
  Partitioning p = HashPartitioner().Partition(dataset, 1);
  DistributedEngine engine(&p);

  // Two 258-vertex stars around ?c with constant leaves o1..o257 that
  // differ in one edge: A repeats `?c p o1` (statically impossible), B adds
  // `?c p o257` (one match, s).
  auto star = [&](int extra_p_leaf) {
    QueryGraph q;
    q.AddEdge("?c", iri("p"), leaf(1));
    for (int i = 2; i <= 257; ++i) q.AddEdge("?c", iri("q"), leaf(i));
    q.AddEdge("?c", iri("p"), leaf(extra_p_leaf));
    return q;
  };
  const QueryGraph a = star(1);
  const QueryGraph b = star(257);
  ASSERT_EQ(a.num_vertices(), 258u);
  ASSERT_EQ(b.num_vertices(), 258u);
  // (Compared as a bool: a failure would otherwise print both long keys.)
  EXPECT_TRUE(QueryShapeKey(a) != QueryShapeKey(b));

  const std::vector<Binding> expected = Serial(engine, b, EngineMode::kFull);
  ASSERT_EQ(expected.size(), 1u);
  ServingEngine server(&engine);
  EXPECT_TRUE(server.Submit(a)->Wait().matches.empty());
  auto ticket = server.Submit(b);
  const QueryOutcome& served = ticket->Wait();
  EXPECT_TRUE(served.exact);
  EXPECT_EQ(served.matches, expected);
  EXPECT_EQ(server.counters().plan_misses, 2u);
}

}  // namespace
}  // namespace gstored
