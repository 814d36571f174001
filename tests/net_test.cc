// Unit tests for the simulated cluster: shipment ledger accounting (thread
// safety included), transport semantics under injected faults, and the
// StageStream contract against a model built from the fault draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/transport.h"
#include "util/thread_pool.h"

namespace gstored {
namespace {

TEST(ShipmentLedgerTest, AccumulatesPerStage) {
  ShipmentLedger ledger;
  ledger.Add(ledger.Intern("a"), 100);
  ledger.Add(ledger.Intern("a"), 50);
  ledger.Add(ledger.Intern("b"), 7);
  EXPECT_EQ(ledger.StageBytes("a"), 150u);
  EXPECT_EQ(ledger.StageBytes("b"), 7u);
  EXPECT_EQ(ledger.StageBytes("missing"), 0u);
  EXPECT_EQ(ledger.TotalBytes(), 157u);
  auto breakdown = ledger.Breakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].first, "a");
}

TEST(ShipmentLedgerTest, ConcurrentAddsAreLossless) {
  // Every thread interns a shared label and its own, then counts against
  // both: concurrent interning and lock-free adds lose nothing.
  ShipmentLedger ledger;
  std::vector<std::thread> threads;
  for (int site = 0; site < 8; ++site) {
    threads.emplace_back([&ledger, site] {
      const ShipmentLedger::StageId shared = ledger.Intern("stage");
      const ShipmentLedger::StageId own =
          ledger.Intern("site" + std::to_string(site));
      for (int i = 0; i < 1000; ++i) {
        ledger.Add(shared, 1);
        ledger.Add(own, 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ledger.StageBytes("stage"), 8000u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(ledger.StageBytes("site" + std::to_string(s)), 2000u);
  }
}

TEST(ShipmentLedgerTest, InternedStageIdsCountLockFree) {
  ShipmentLedger ledger;
  ShipmentLedger::StageId a = ledger.Intern("alpha");
  EXPECT_EQ(ledger.Intern("alpha"), a);
  ShipmentLedger::StageId b = ledger.Intern("beta");
  EXPECT_NE(a, b);
  ledger.Add(a, 10);
  ledger.Add(b, 5);
  ledger.Add(a, 1);
  EXPECT_EQ(ledger.StageBytes(a), 11u);
  EXPECT_EQ(ledger.StageBytes("alpha"), 11u);
  EXPECT_EQ(ledger.StageBytes(b), 5u);
  EXPECT_EQ(ledger.TotalBytes(), 16u);
  // kUnaccounted is a sink: control-plane traffic is recorded nowhere.
  ledger.Add(ShipmentLedger::kUnaccounted, 1000);
  EXPECT_EQ(ledger.TotalBytes(), 16u);
  EXPECT_EQ(ledger.StageBytes(ShipmentLedger::kUnaccounted), 0u);
  auto breakdown = ledger.Breakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].first, "alpha");
  EXPECT_EQ(breakdown[1].first, "beta");
}

/// A payload for transport tests that decodes back to what it carries: a
/// match batch whose num_lpms holds `tag` and whose one-column rows hold
/// `values`.
WireMessage Tagged(uint64_t tag, const std::vector<TermId>& values = {}) {
  std::vector<Binding> rows;
  for (TermId value : values) rows.push_back({value});
  return MakeMessage(MessageType::kMatchBatch, EncodeMatchBatch(tag, 1, rows));
}

/// Collects StageStream callbacks: each site's delivered batch plus the
/// order in which sites reached the consumer. Calls for different sites may
/// overlap, so the shared arrival order takes a lock.
struct StreamCollector {
  std::vector<std::vector<WireMessage>> batches;
  std::mutex arrival_mu;  // guards arrival_order
  std::vector<int> arrival_order;

  SiteBatchConsumer Consumer(int num_sites) {
    batches.assign(num_sites, {});
    arrival_order.clear();
    return [this](int site, std::vector<WireMessage> msgs) {
      {
        std::lock_guard<std::mutex> lock(arrival_mu);
        arrival_order.push_back(site);
      }
      batches[site] = std::move(msgs);
    };
  }
};

TEST(InProcessTransportTest, NoFaultStageDeliversEverythingFirstAttempt) {
  ShipmentLedger ledger;
  InProcessTransport transport(3, &ledger);
  ShipmentLedger::StageId stage_id = ledger.Intern("stage");
  StreamCollector collector;
  StageResult result = transport.StageStream(
      0, stage_id, StagePolicy{},
      [](int site) {
        std::vector<WireMessage> msgs;
        msgs.push_back(Tagged(site, {1}));
        msgs.push_back(Tagged(2));
        return msgs;
      },
      collector.Consumer(3));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.total_retries(), 0u);
  EXPECT_EQ(result.hedged_sites(), 0u);
  // Each site reaches the consumer exactly once.
  EXPECT_EQ(collector.arrival_order.size(), 3u);
  for (int site = 0; site < 3; ++site) {
    const SiteStageReport& report = result.sites[site];
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.attempts, 1);
    EXPECT_FALSE(report.hedged);
    // Payloads come back in sequence order with the done marker stripped.
    ASSERT_EQ(collector.batches[site].size(), 2u);
    EXPECT_EQ(collector.batches[site][0].seq, 0u);
    EXPECT_EQ(collector.batches[site][1].seq, 1u);
    auto batch = DecodeMatchBatch(collector.batches[site][0].payload);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->num_lpms, static_cast<uint64_t>(site));
  }
  // Every send is accounted at wire size: per site two tagged payloads
  // (header + 16-byte batch header + 4 per row) plus the done marker
  // (header + 4).
  const size_t h = WireMessage::kHeaderBytes;
  size_t per_site = (h + 16 + 4) + (h + 16) + (h + 4);
  EXPECT_EQ(ledger.StageBytes(stage_id), 3 * per_site);
}

TEST(InProcessTransportTest, StragglerExhaustsRetriesThenHedges) {
  FaultPlan plan;
  plan.site_overrides[1].straggler = true;
  ShipmentLedger ledger;
  InProcessTransport transport(2, &ledger, plan);
  StagePolicy policy;
  policy.max_attempts = 3;
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    msgs.push_back(Tagged(site));
    return msgs;
  };
  StreamCollector collector;
  StageResult hedged = transport.StageStream(
      0, ShipmentLedger::kUnaccounted, policy, site_fn, collector.Consumer(2));
  EXPECT_TRUE(hedged.complete());
  EXPECT_TRUE(hedged.sites[1].hedged);
  EXPECT_EQ(hedged.sites[1].attempts, 3);
  EXPECT_EQ(hedged.total_retries(), 2u);
  EXPECT_FALSE(hedged.sites[0].hedged);
  ASSERT_EQ(collector.batches[1].size(), 1u);
  // Queue wait accumulates the blown deadlines plus backoff for the
  // straggler only.
  EXPECT_GT(hedged.sites[1].queue_wait_ms, 3 * policy.deadline_ms);
  EXPECT_LT(hedged.sites[0].queue_wait_ms, policy.deadline_ms);
  EXPECT_EQ(ledger.TotalBytes(), 0u);  // kUnaccounted stage

  // Without hedging the site is reported failed, with no messages.
  policy.hedge_local = false;
  StageResult failed = transport.StageStream(
      0, ShipmentLedger::kUnaccounted, policy, site_fn, collector.Consumer(2));
  EXPECT_FALSE(failed.complete());
  EXPECT_FALSE(failed.sites[1].ok);
  EXPECT_TRUE(collector.batches[1].empty());
  EXPECT_TRUE(failed.sites[0].ok);
}

TEST(InProcessTransportTest, CrashedSiteSkipsExecutionAndBroadcasts) {
  FaultPlan plan;
  plan.site_overrides[0].crash_at_stage =
      static_cast<int>(StageOrdinal(QueryStage::kPartialEval));
  ShipmentLedger ledger;
  InProcessTransport transport(2, &ledger, plan);
  StagePolicy policy;
  policy.hedge_local = false;
  std::atomic<int> calls{0};
  auto site_fn = [&](int) {
    ++calls;
    std::vector<WireMessage> msgs;
    msgs.push_back(Tagged(1));
    return msgs;
  };
  StreamCollector collector;
  // Before the crash stage the site is healthy.
  StageResult before = transport.StageStream(
      1, ShipmentLedger::kUnaccounted, policy, site_fn, collector.Consumer(2));
  EXPECT_TRUE(before.complete());
  // At the crash stage the site never runs and is marked crashed.
  calls = 0;
  StageResult at = transport.StageStream(
      2, ShipmentLedger::kUnaccounted, policy, site_fn, collector.Consumer(2));
  EXPECT_FALSE(at.complete());
  EXPECT_TRUE(at.sites[0].crashed);
  EXPECT_FALSE(at.sites[0].ok);
  EXPECT_TRUE(at.sites[1].ok);
  EXPECT_EQ(calls.load(), 1);
  // Broadcasts to the dead site fail; the live site receives.
  const std::vector<uint8_t> bitmap = EncodeBitmap({true});
  std::vector<bool> delivered = transport.BroadcastReliable(
      3, ShipmentLedger::kUnaccounted, policy,
      [&](int) -> const std::vector<uint8_t>& { return bitmap; });
  EXPECT_FALSE(delivered[0]);
  EXPECT_TRUE(delivered[1]);
}

TEST(InProcessTransportTest, DuplicationAndReorderAreInvisible) {
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    for (uint32_t i = 0; i < 4; ++i) {
      msgs.push_back(Tagged(site, {i}));
    }
    return msgs;
  };
  StagePolicy policy;

  ShipmentLedger clean_ledger;
  InProcessTransport clean(2, &clean_ledger);
  ShipmentLedger::StageId clean_stage = clean_ledger.Intern("s");
  StreamCollector expected;
  ASSERT_TRUE(clean.StageStream(0, clean_stage, policy, site_fn,
                                expected.Consumer(2))
                  .complete());

  FaultPlan plan;
  plan.seed = 7;
  plan.reorder = true;
  plan.default_fault.duplicate_prob = 1.0;
  plan.default_fault.latency_mean_ms = 2.0;
  plan.default_fault.latency_jitter_ms = 1.0;
  ShipmentLedger faulty_ledger;
  InProcessTransport faulty(2, &faulty_ledger, plan);
  ShipmentLedger::StageId faulty_stage = faulty_ledger.Intern("s");
  StreamCollector collector;
  StageResult result = faulty.StageStream(0, faulty_stage, policy, site_fn,
                                          collector.Consumer(2));
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.total_retries(), 0u);
  for (int site = 0; site < 2; ++site) {
    ASSERT_EQ(collector.batches[site].size(), expected.batches[site].size());
    for (size_t i = 0; i < collector.batches[site].size(); ++i) {
      EXPECT_EQ(collector.batches[site][i].seq, expected.batches[site][i].seq);
      EXPECT_EQ(collector.batches[site][i].payload,
                expected.batches[site][i].payload);
    }
  }
  // The ledger counts traffic, not goodput: with duplicate_prob = 1 every
  // send ships twice, so exactly double the clean byte count.
  EXPECT_EQ(faulty_ledger.StageBytes(faulty_stage),
            2 * clean_ledger.StageBytes(clean_stage));
}

TEST(InProcessTransportTest, DropsAreRecoveredByRetryDeterministically) {
  FaultPlan plan;
  plan.seed = 11;
  plan.default_fault.drop_prob = 0.25;
  StagePolicy policy;
  policy.max_attempts = 10;
  policy.hedge_local = false;
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    msgs.push_back(Tagged(site));
    msgs.push_back(Tagged(9));
    return msgs;
  };
  auto run_once = [&]() {
    ShipmentLedger ledger;
    InProcessTransport transport(3, &ledger, plan);
    StreamCollector collector;
    StageResult r = transport.StageStream(2, ShipmentLedger::kUnaccounted,
                                          policy, site_fn,
                                          collector.Consumer(3));
    return std::make_pair(r.complete(), r.total_retries());
  };
  auto first = run_once();
  EXPECT_TRUE(first.first);
  EXPECT_GT(first.second, 0u);
  // The fault pattern is a pure function of the plan: fresh transports and
  // different thread interleavings replay the same outcome and retry count.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

TEST(InProcessTransportTest, QueueWaitCountsOneRetryOnce) {
  // A site that blows its first deadline and delivers on the retry waited
  // exactly deadline + backoff + the retry's latency. The retry's arrival
  // times are offset by that backoff, so it must not be counted twice.
  StagePolicy policy;
  policy.deadline_ms = 1000.0;
  policy.backoff_ms = 5.0;
  const uint32_t stage = 2;
  // Site 0 sends one payload (seq 0) and the done marker (seq 1). Pick the
  // first seed whose draws drop a message of attempt 0 and none of attempt 1.
  FaultPlan plan;
  plan.default_fault.drop_prob = 0.5;
  plan.default_fault.latency_mean_ms = 3.0;
  plan.site_overrides[1] = SiteFaultSpec{};  // site 1: no faults at all
  auto drops_any = [&](uint32_t attempt) {
    return plan.Drop(0, stage, attempt, 0, false) ||
           plan.Drop(0, stage, attempt, 1, false);
  };
  plan.seed = 1;
  while (!drops_any(0) || drops_any(1)) ++plan.seed;
  const double latency = std::max(plan.LatencyMs(0, stage, 1, 0, false),
                                  plan.LatencyMs(0, stage, 1, 1, false));
  ASSERT_GT(latency, 0.0);
  ASSERT_LT(latency, policy.deadline_ms);

  ShipmentLedger ledger;
  InProcessTransport transport(2, &ledger, plan);
  StreamCollector collector;
  StageResult result = transport.StageStream(
      stage, ShipmentLedger::kUnaccounted, policy,
      [](int site) {
        return std::vector<WireMessage>{Tagged(site)};
      },
      collector.Consumer(2));
  ASSERT_TRUE(result.sites[0].ok);
  EXPECT_FALSE(result.sites[0].hedged);
  EXPECT_EQ(result.sites[0].attempts, 2);
  EXPECT_NEAR(result.sites[0].queue_wait_ms,
              policy.deadline_ms + policy.backoff_ms + latency, 1e-9);
  // The healthy site waited nothing.
  EXPECT_EQ(result.sites[1].attempts, 1);
  EXPECT_EQ(result.sites[1].queue_wait_ms, 0.0);
}

/// The transport's per-site contract, written from FaultPlan's public draws
/// alone: what one site's report and ledger bytes must be for a stage.
struct ModelSite {
  bool ok = false;
  bool crashed = false;
  bool hedged = false;
  int attempts = 0;
  size_t ledger_bytes = 0;
};

ModelSite ModelStageSite(const FaultPlan& plan, const StagePolicy& policy,
                         uint32_t stage, int site,
                         const std::vector<WireMessage>& payloads) {
  ModelSite m;
  if (plan.SiteDead(site, stage)) {
    // A dead site uses one attempt and sends nothing.
    m.crashed = true;
    m.attempts = 1;
  } else {
    // Seqs 0..k-1 are the payloads, seq k the done marker.
    std::vector<size_t> wire_sizes;
    for (const WireMessage& msg : payloads) {
      wire_sizes.push_back(msg.WireSize());
    }
    wire_sizes.push_back(
        MakeMessage(MessageType::kStageDone,
                    EncodeDoneMarker(static_cast<uint32_t>(payloads.size())))
            .WireSize());
    for (int attempt = 0; attempt < policy.max_attempts && !m.ok; ++attempt) {
      m.attempts = attempt + 1;
      const uint32_t a = static_cast<uint32_t>(attempt);
      bool all_in_time = true;
      for (uint32_t seq = 0; seq < wire_sizes.size(); ++seq) {
        const bool dup = plan.Duplicate(site, stage, a, seq, false);
        m.ledger_bytes += wire_sizes[seq] * (dup ? 2 : 1);
        if (plan.Drop(site, stage, a, seq, false) ||
            plan.LatencyMs(site, stage, a, seq, false) > policy.deadline_ms) {
          all_in_time = false;
        }
      }
      m.ok = all_in_time;
    }
  }
  if (!m.ok && policy.hedge_local) {
    m.ok = true;
    m.hedged = true;
  }
  return m;
}

TEST(StageStreamTest, MatchesTheFaultModelUnderEveryFaultFamily) {
  // Per fault family — drops, duplication+reorder, a straggler (hedged and
  // unhedged) and a crash — each site's report, the ledger bytes and the
  // delivered payloads follow ModelStageSite exactly.
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    for (uint32_t i = 0; i < 3; ++i) {
      msgs.push_back(Tagged(site, {i}));
    }
    return msgs;
  };

  std::vector<FaultPlan> plans(5);
  plans[0].default_fault.drop_prob = 0.3;
  plans[1].reorder = true;
  plans[1].default_fault.duplicate_prob = 0.5;
  plans[1].default_fault.latency_mean_ms = 1.0;
  plans[2].site_overrides[1].straggler = true;
  plans[3].site_overrides[1].straggler = true;  // run unhedged below
  plans[4].site_overrides[0].crash_at_stage = 2;

  size_t hedged_sites = 0;
  size_t retried_sites = 0;
  for (size_t which = 0; which < plans.size(); ++which) {
    for (uint64_t seed : {uint64_t{5}, uint64_t{23}, uint64_t{4099}}) {
      FaultPlan plan = plans[which];
      plan.seed = seed;
      StagePolicy policy;
      policy.max_attempts = 4;
      policy.hedge_local = which != 3;

      ShipmentLedger ledger;
      InProcessTransport transport(3, &ledger, plan);
      ShipmentLedger::StageId stage_id = ledger.Intern("s");
      StreamCollector collector;
      StageResult result = transport.StageStream(2, stage_id, policy, site_fn,
                                                 collector.Consumer(3));

      const std::string context =
          "plan=" + std::to_string(which) + " seed=" + std::to_string(seed);
      size_t model_bytes = 0;
      for (int site = 0; site < 3; ++site) {
        const std::vector<WireMessage> payloads = site_fn(site);
        const ModelSite m = ModelStageSite(plan, policy, 2, site, payloads);
        model_bytes += m.ledger_bytes;
        const SiteStageReport& report = result.sites[site];
        EXPECT_EQ(report.ok, m.ok) << context << " site=" << site;
        EXPECT_EQ(report.crashed, m.crashed) << context << " site=" << site;
        EXPECT_EQ(report.hedged, m.hedged) << context << " site=" << site;
        EXPECT_EQ(report.attempts, m.attempts) << context << " site=" << site;
        if (m.hedged) ++hedged_sites;
        if (m.attempts > 1) ++retried_sites;
        if (!m.ok) {
          EXPECT_TRUE(collector.batches[site].empty()) << context;
          continue;
        }
        ASSERT_EQ(collector.batches[site].size(), payloads.size())
            << context << " site=" << site;
        for (size_t i = 0; i < payloads.size(); ++i) {
          EXPECT_EQ(collector.batches[site][i].seq, i) << context;
          EXPECT_EQ(collector.batches[site][i].type, payloads[i].type)
              << context;
          EXPECT_EQ(collector.batches[site][i].payload, payloads[i].payload)
              << context;
        }
      }
      EXPECT_EQ(ledger.StageBytes(stage_id), model_bytes) << context;
      EXPECT_EQ(ledger.TotalBytes(), model_bytes) << context;
    }
  }
  // The sweep must reach the retry and hedge branches of the model.
  EXPECT_GT(retried_sites, 0u);
  EXPECT_GT(hedged_sites, 0u);
}

TEST(StageStreamTest, SameHistoryOnEveryPoolSize) {
  // Which thread runs a site, and whether sites overlap, must not change
  // any site's history: over the fault plans and seeds of
  // MatchesTheFaultModelUnderEveryFaultFamily, pools of 0, 1 and 4 workers
  // give the same reports, ledger bytes and delivered messages, and those
  // follow ModelStageSite.
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    for (uint32_t i = 0; i < 3; ++i) {
      msgs.push_back(Tagged(site, {i}));
    }
    return msgs;
  };
  std::vector<FaultPlan> plans(5);
  plans[0].default_fault.drop_prob = 0.3;
  plans[1].reorder = true;
  plans[1].default_fault.duplicate_prob = 0.5;
  plans[1].default_fault.latency_mean_ms = 1.0;
  plans[2].site_overrides[1].straggler = true;
  plans[3].site_overrides[1].straggler = true;  // run unhedged below
  plans[4].site_overrides[0].crash_at_stage = 2;

  ThreadPool no_workers(0);
  ThreadPool one_worker(1);
  ThreadPool four_workers(4);
  for (size_t which = 0; which < plans.size(); ++which) {
    for (uint64_t seed : {uint64_t{5}, uint64_t{23}, uint64_t{4099}}) {
      FaultPlan plan = plans[which];
      plan.seed = seed;
      StagePolicy policy;
      policy.max_attempts = 4;
      policy.hedge_local = which != 3;

      std::vector<SiteStageReport> first_reports;
      std::vector<std::vector<WireMessage>> first_batches;
      for (ThreadPool* pool : {&no_workers, &one_worker, &four_workers}) {
        const std::string context =
            "plan=" + std::to_string(which) + " seed=" +
            std::to_string(seed) + " workers=" +
            std::to_string(pool->num_workers());
        ShipmentLedger ledger;
        InProcessTransport transport(3, &ledger, plan);
        StreamCollector collector;
        StageResult result =
            transport.StageStream(2, ledger.Intern("s"), policy, site_fn,
                                  collector.Consumer(3), pool);
        size_t model_bytes = 0;
        for (int site = 0; site < 3; ++site) {
          const ModelSite m =
              ModelStageSite(plan, policy, 2, site, site_fn(site));
          model_bytes += m.ledger_bytes;
          const SiteStageReport& report = result.sites[site];
          EXPECT_EQ(report.ok, m.ok) << context << " site=" << site;
          EXPECT_EQ(report.crashed, m.crashed) << context << " site=" << site;
          EXPECT_EQ(report.hedged, m.hedged) << context << " site=" << site;
          EXPECT_EQ(report.attempts, m.attempts) << context << " site=" << site;
        }
        EXPECT_EQ(ledger.TotalBytes(), model_bytes) << context;

        if (first_reports.empty()) {
          first_reports = result.sites;
          first_batches = collector.batches;
          continue;
        }
        for (int site = 0; site < 3; ++site) {
          // Virtual queue wait replays exactly; exec_ms is real time.
          EXPECT_EQ(result.sites[site].queue_wait_ms,
                    first_reports[site].queue_wait_ms)
              << context << " site=" << site;
          const std::vector<WireMessage>& got = collector.batches[site];
          const std::vector<WireMessage>& want = first_batches[site];
          ASSERT_EQ(got.size(), want.size()) << context << " site=" << site;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].type, want[i].type) << context;
            EXPECT_EQ(got[i].sender, want[i].sender) << context;
            EXPECT_EQ(got[i].stage, want[i].stage) << context;
            EXPECT_EQ(got[i].attempt, want[i].attempt) << context;
            EXPECT_EQ(got[i].seq, want[i].seq) << context;
            EXPECT_EQ(got[i].payload, want[i].payload) << context;
          }
        }
      }
    }
  }
}

TEST(StageStreamTest, SiteFunctionRunsOncePerSitePerStage) {
  // Retries re-ship the buffered bytes and a hedge delivers them, so no
  // number of attempts re-runs a site's function; a crashed site runs it
  // only when hedging asks for its data.
  FaultPlan drops;
  drops.seed = 11;
  drops.default_fault.drop_prob = 0.4;
  FaultPlan straggler;
  straggler.site_overrides[1].straggler = true;
  FaultPlan crash;
  crash.site_overrides[0].crash_at_stage = 2;
  struct Case {
    const char* name;
    FaultPlan plan;
    bool hedge;
    std::vector<int> expected_calls;
  };
  const Case cases[] = {
      {"drops", drops, true, {1, 1, 1}},
      {"hedged straggler", straggler, true, {1, 1, 1}},
      {"hedged crash", crash, true, {1, 1, 1}},
      {"unhedged crash", crash, false, {0, 1, 1}},
  };
  for (const Case& c : cases) {
    std::vector<std::atomic<int>> calls(3);
    ShipmentLedger ledger;
    InProcessTransport transport(3, &ledger, c.plan);
    StagePolicy policy;
    policy.max_attempts = 4;
    policy.hedge_local = c.hedge;
    StreamCollector collector;
    StageResult result = transport.StageStream(
        2, ShipmentLedger::kUnaccounted, policy,
        [&calls](int site) {
          ++calls[site];
          return std::vector<WireMessage>{Tagged(site)};
        },
        collector.Consumer(3));
    for (int site = 0; site < 3; ++site) {
      EXPECT_EQ(calls[site].load(), c.expected_calls[site])
          << c.name << " site=" << site;
    }
    EXPECT_EQ(result.complete(), c.hedge) << c.name;
    // Every case reaches a retry or a crash, never just one clean attempt.
    EXPECT_TRUE(result.total_retries() > 0 || result.sites[0].crashed)
        << c.name;
  }
}

TEST(StageStreamTest, OnlyRecoveredSitesReachTheConsumer) {
  // A failed site (straggler, no hedging) must never invoke the consumer —
  // a partial attempt's bytes leaking through would tear the fold.
  FaultPlan plan;
  plan.site_overrides[1].straggler = true;
  ShipmentLedger ledger;
  InProcessTransport transport(2, &ledger, plan);
  StagePolicy policy;
  policy.max_attempts = 2;
  policy.hedge_local = false;
  StreamCollector collector;
  StageResult result = transport.StageStream(
      0, ShipmentLedger::kUnaccounted, policy,
      [](int site) {
        return std::vector<WireMessage>{Tagged(site)};
      },
      collector.Consumer(2));
  EXPECT_FALSE(result.complete());
  EXPECT_FALSE(result.sites[1].ok);
  ASSERT_EQ(collector.arrival_order.size(), 1u);
  EXPECT_EQ(collector.arrival_order[0], 0);
  EXPECT_TRUE(collector.batches[1].empty());
}

}  // namespace
}  // namespace gstored
