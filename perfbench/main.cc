// gstored perf benchmark: closed-loop end-to-end runs (--trace 0) and a
// layer-attributed traced run (--trace 1) over three workloads. See
// README.md beside this file for the workloads, metrics and span format.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query_context.h"
#include "replay.h"
#include "serve/scheduler.h"
#include "sparql/parser.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Counters = gstored::serve::ServingEngine::Counters;

/// Back-to-back in-process setups per run; setup_s is their median. The
/// first build pays fresh-page faults, and the machine has slow phases of a
/// second or two in which a build takes up to 40% longer, so a single setup
/// or a short burst of them is noisy: build at least kMinSetups times and
/// keep going until the batches kept (see kMaxStealShare) hold
/// kMinSetupSeconds of builds, so that slow phases stay a minority of every
/// run's builds.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 6.0;
/// Setups are built in batches of about this long; a batch is one steal
/// window.
constexpr double kSetupBatchSeconds = 1.0;
/// Steal gating. On a shared virtual machine other guests take CPU time
/// from ours, and every query stage waits for its slowest site thread, so a
/// little steal costs far more: lubm-complex runs with 4-12% of the
/// machine's CPU time stolen read p50_ms 30-50% above runs under 0.5%. So
/// every timed phase is measured in windows (a block of a single-client
/// stream, a round of the serving clients, a batch of setups), and a window
/// whose steal share (see StealShare) passes kMaxStealShare is set aside.
/// Measuring goes on until the kept windows cover the wanted time or the
/// phase has run kMaxPhaseFactor times as long; then the least-stolen of
/// the windows set aside make up the rest.
constexpr double kMaxStealShare = 0.02;
constexpr double kMaxPhaseFactor = 1.5;
/// Length of one serve-zipf measurement round (one steal window).
constexpr double kServeRoundSeconds = 2.0;
/// Untimed queries before a single-client loop starts timing.
constexpr size_t kWarmupQueries = 8;
/// serve-zipf requests per client before timing starts (cache warm-up).
constexpr int kWarmupPerClient = 1024;
/// Least samples per tail_ms window (see TailLatency): enough for p99.
constexpr size_t kTailWindowSamples = 2000;
/// The traced run's guard against layer times that were not spent in the
/// call (virtual transport time, say): a replay whose layers add up to more
/// than kLayerSlackFactor times Run's wall time on the same query, plus
/// kLayerSlackMs, is repeated, since a stall of the host can cause it too;
/// one that is still too long after kReplayAttempts fails the run.
constexpr double kLayerSlackFactor = 3.0;
constexpr double kLayerSlackMs = 10.0;
constexpr int kReplayAttempts = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lubm-complex|yago-lossy|"
               "serve-zipf --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Steal time of the machine's CPUs so far, in seconds: time the host gave
/// to other guests while ours were ready to run (the steal column of
/// /proc/stat; 0 where it cannot be read).
double StealSeconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0.0;
  unsigned long long t[8] = {};
  const int got = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                              &t[7]);
  std::fclose(stat);
  return got == 8 ? static_cast<double>(t[7]) /
                        static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Steal share of a window (anything with `cpu_s` and `steal_s`): the
/// host's steal over that steal plus the process's CPU time, i.e. the part
/// of the CPU time our threads wanted that went to other guests. Idle CPUs
/// accrue no steal, so the share does not shrink when fewer threads run.
template <typename Window>
double StealShare(const Window& w) {
  return Ratio(w.steal_s, w.cpu_s + w.steal_s);
}

template <typename Window>
bool Clean(const Window& w) {
  return StealShare(w) <= kMaxStealShare;
}

/// Which of a phase's windows (anything with `wall_s`, `cpu_s` and
/// `steal_s`) it keeps: every clean window and, while those cover less than
/// `wanted` seconds, the least-stolen of the rest. Indices in time order.
template <typename Window>
std::vector<size_t> KeepLeastStolen(const std::vector<Window>& windows,
                                    double wanted) {
  std::vector<size_t> order(windows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return StealShare(windows[a]) < StealShare(windows[b]);
  });
  std::vector<size_t> kept;
  double covered = 0.0;
  for (size_t i : order) {
    if (covered >= wanted && !Clean(windows[i])) break;
    kept.push_back(i);
    covered += windows[i].wall_s;
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// How many windows a phase measured and kept, and the steal share of the
/// kept ones and of all.
struct WindowTally {
  size_t kept = 0;
  size_t total = 0;
  double kept_share = 0.0;
  double all_share = 0.0;

  template <typename Window>
  static WindowTally Of(const std::vector<Window>& windows,
                        const std::vector<size_t>& keep) {
    struct Sum {
      double cpu_s = 0.0;
      double steal_s = 0.0;
    } kept_sum, all_sum;
    for (size_t i : keep) {
      kept_sum.cpu_s += windows[i].cpu_s;
      kept_sum.steal_s += windows[i].steal_s;
    }
    for (const Window& w : windows) {
      all_sum.cpu_s += w.cpu_s;
      all_sum.steal_s += w.steal_s;
    }
    WindowTally tally;
    tally.kept = keep.size();
    tally.total = windows.size();
    tally.kept_share = StealShare(kept_sum);
    tally.all_share = StealShare(all_sum);
    return tally;
  }
};

/// Adds the counter growth from `before` to `after` into `sum`.
void AddCounterGrowth(const Counters& before, const Counters& after,
                      Counters* sum) {
  sum->executed += after.executed - before.executed;
  sum->result_hits += after.result_hits - before.result_hits;
  sum->plan_hits += after.plan_hits - before.plan_hits;
  sum->plan_misses += after.plan_misses - before.plan_misses;
  sum->lpm_hits += after.lpm_hits - before.lpm_hits;
  sum->coalesced += after.coalesced - before.coalesced;
}

bool Correct(const gstored::QueryOutcome& outcome, const DistinctQuery& q) {
  return outcome.exact && !outcome.stats.cancelled &&
         outcome.matches == q.reference;
}

// ---------------------------------------------------------------------------
// Closed-loop end-to-end phase.

/// What one measurement window of an untraced closed loop observed, or the
/// kept windows merged. Byte and count columns come from QueryStats and the
/// session ledgers; no QueryStats time column is used (the stage columns mix
/// in virtual transport wait).
struct LoopResult {
  std::vector<double> latencies_ms;
  std::vector<double> done_s;  // completion times on the steady clock
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;  // host steal over all CPUs
  size_t failed = 0;
  double wire_candidates = 0.0;  // bytes, summed over queries
  double wire_lec = 0.0;
  double wire_lpm = 0.0;
  double retries = 0.0;
  double hedged = 0.0;
  // Serving layer (serve-zipf only).
  Counters counters;
  double queue_wait_ms = 0.0;  // summed over executed tickets
  double exec_ms = 0.0;
  size_t executed_tickets = 0;
  WindowTally windows;  // of a merged result

  double shipment_bytes() const { return wire_candidates + wire_lec + wire_lpm; }

  void Merge(const LoopResult& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    steal_s += other.steal_s;
    failed += other.failed;
    wire_candidates += other.wire_candidates;
    wire_lec += other.wire_lec;
    wire_lpm += other.wire_lpm;
    retries += other.retries;
    hedged += other.hedged;
    AddCounterGrowth(Counters(), other.counters, &counters);
    queue_wait_ms += other.queue_wait_ms;
    exec_ms += other.exec_ms;
    executed_tickets += other.executed_tickets;
  }
};

/// The clocks at the start of a measurement window.
struct WindowStart {
  double cpu_s = ProcessCpuSeconds();
  double steal_s = StealSeconds();
  Clock::time_point wall = Clock::now();

  /// Stamps `w` with the wall, CPU and steal time since the start.
  template <typename Window>
  void Close(Window* w) const {
    w->wall_s = SecondsSince(wall);
    w->cpu_s = ProcessCpuSeconds() - cpu_s;
    w->steal_s = StealSeconds() - steal_s;
  }
};

/// The timed phase's result: its kept windows merged. Failures count in
/// every window, kept or not, and in the warm-up.
LoopResult KeepWindows(const std::vector<LoopResult>& windows, double seconds,
                       size_t warmup_failed) {
  const std::vector<size_t> keep = KeepLeastStolen(windows, seconds);
  LoopResult result;
  for (size_t i : keep) result.Merge(windows[i]);
  result.failed = warmup_failed;
  for (const LoopResult& w : windows) result.failed += w.failed;
  result.windows = WindowTally::Of(windows, keep);
  return result;
}

void RecordLatency(Clock::time_point start, LoopResult* out) {
  const Clock::time_point done = Clock::now();
  out->latencies_ms.push_back(
      std::chrono::duration<double, std::milli>(done - start).count());
  out->done_s.push_back(
      std::chrono::duration<double>(done.time_since_epoch()).count());
}

void RecordStats(const gstored::QueryStats& stats, LoopResult* out) {
  out->retries += static_cast<double>(stats.transport_retries);
  out->hedged += static_cast<double>(stats.hedged_sites);
}

/// One single-client query over its own session: the block position is the
/// session id, so a position's fault draws repeat in every block.
void RunOneBlockQuery(const Deployment& d, const QueryMix& mix, size_t pos,
                      LoopResult* out) {
  const DistinctQuery& q = mix.distinct[mix.block[pos]];
  const auto start = Clock::now();
  const uint32_t session_id = static_cast<uint32_t>(pos + 1);
  gstored::QuerySession session(d.engine->num_sites(),
                                SessionFaultPlan(d.fault_plan, session_id),
                                session_id);
  gstored::QueryContext ctx;
  ctx.ledger = &session.ledger;
  ctx.transport = &session.transport;
  const gstored::QueryOutcome outcome = d.engine->Run(
      gstored::QueryRequest(q.graph, gstored::EngineMode::kFull, ctx));
  RecordLatency(start, out);
  if (!Correct(outcome, q)) ++out->failed;
  out->wire_candidates += session.ledger.StageBytes(gstored::kCandidateStage);
  out->wire_lec += session.ledger.StageBytes(gstored::kLecFeatureStage);
  out->wire_lpm += session.ledger.StageBytes(gstored::kLpmShipmentStage);
  RecordStats(outcome.stats, out);
}

/// lubm-complex / yago-lossy: one closed-loop client replaying the block
/// whole, one block per window, after a few untimed warm-up queries.
LoopResult RunBlockLoop(const Deployment& d, const QueryMix& mix,
                        double seconds) {
  LoopResult warmup;
  for (size_t pos = 0; pos < std::min(kWarmupQueries, mix.block.size());
       ++pos) {
    RunOneBlockQuery(d, mix, pos, &warmup);
  }
  std::vector<LoopResult> windows;
  double clean_s = 0.0;
  const auto start = Clock::now();
  do {
    LoopResult& w = windows.emplace_back();
    const WindowStart window;
    for (size_t pos = 0; pos < mix.block.size(); ++pos) {
      RunOneBlockQuery(d, mix, pos, &w);
    }
    window.Close(&w);
    if (Clean(w)) clean_s += w.wall_s;
  } while (clean_s < seconds &&
           SecondsSince(start) < seconds * kMaxPhaseFactor);
  return KeepWindows(windows, seconds, warmup.failed);
}

/// One serving request: the client parses the SPARQL text, submits it on
/// its lane and waits. Latency covers all three.
void RunOneServingRequest(gstored::serve::ServingEngine& server,
                          const DistinctQuery& q, int lane, LoopResult* out) {
  const auto start = Clock::now();
  gstored::Result<gstored::QueryGraph> parsed = gstored::ParseSparql(q.sparql);
  if (!parsed.ok()) {
    ++out->failed;
    return;
  }
  gstored::serve::SubmitOptions options;
  options.lane = lane;
  std::shared_ptr<gstored::serve::QueryTicket> ticket =
      server.Submit(parsed.value(), options);
  const gstored::QueryOutcome& outcome = ticket->Wait();
  RecordLatency(start, out);
  if (!Correct(outcome, q)) ++out->failed;
  const gstored::QueryStats& stats = outcome.stats;
  out->wire_candidates += static_cast<double>(stats.candidate_shipment_bytes);
  out->wire_lec += static_cast<double>(stats.lec_shipment_bytes);
  out->wire_lpm += static_cast<double>(stats.lpm_shipment_bytes);
  RecordStats(stats, out);
  if (!stats.result_cache_hit && !stats.coalesced_hit) {
    ++out->executed_tickets;
    out->exec_ms += stats.total_time_ms;
    out->queue_wait_ms += ticket->latency_ms() - stats.total_time_ms;
  }
}

/// serve-zipf: one closed-loop client per in-flight slot, each on its own
/// lane and its own seeded Zipf stream; a warm-up prefix fills the caches.
/// The clients run in rounds of kServeRoundSeconds, one round per window.
LoopResult RunServingLoop(const Deployment& d, const QueryMix& mix,
                          uint64_t seed, double seconds) {
  gstored::serve::ServingEngine& server = *d.server;
  const int clients = static_cast<int>(BenchThreads());
  std::vector<gstored::Rng> streams;
  for (int c = 0; c < clients; ++c) {
    streams.emplace_back(seed * 0x9e3779b97f4a7c15ULL + 101 + c);
  }
  auto run_clients = [&](auto&& body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  };

  std::vector<LoopResult> warmup(clients);
  run_clients([&](int c) {
    for (int i = 0; i < kWarmupPerClient; ++i) {
      RunOneServingRequest(server, mix.distinct[DrawZipf(mix, streams[c].Next())],
                           c, &warmup[c]);
    }
  });
  size_t warmup_failed = 0;
  for (const LoopResult& w : warmup) warmup_failed += w.failed;

  const double round_s = std::min(kServeRoundSeconds, seconds);
  std::vector<LoopResult> windows;
  double clean_s = 0.0;
  const auto start = Clock::now();
  do {
    std::vector<LoopResult> per_client(clients);
    const Counters before = server.counters();
    const WindowStart window;
    run_clients([&](int c) {
      while (SecondsSince(window.wall) < round_s) {
        RunOneServingRequest(server,
                             mix.distinct[DrawZipf(mix, streams[c].Next())],
                             c, &per_client[c]);
      }
    });
    LoopResult& w = windows.emplace_back();
    window.Close(&w);
    for (const LoopResult& r : per_client) w.Merge(r);  // samples only
    AddCounterGrowth(before, server.counters(), &w.counters);
    if (Clean(w)) clean_s += w.wall_s;
  } while (clean_s < seconds &&
           SecondsSince(start) < seconds * kMaxPhaseFactor);
  return KeepWindows(windows, seconds, warmup_failed);
}

LoopResult RunLoop(WorkloadKind kind, const Deployment& d, const QueryMix& mix,
                   uint64_t seed, double seconds) {
  return kind == WorkloadKind::kServeZipf
             ? RunServingLoop(d, mix, seed, seconds)
             : RunBlockLoop(d, mix, seconds);
}

// ---------------------------------------------------------------------------
// Setup.

/// Back-to-back setups in one steal window.
struct SetupBatch {
  std::vector<SetupTiming> builds;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;
};

/// Builds the deployment over and over, in batches of kSetupBatchSeconds,
/// and returns the timings of the builds in the batches kept. The last
/// build stays in `*deployment`.
std::vector<SetupTiming> MeasureSetup(WorkloadKind kind, uint64_t seed,
                                      std::unique_ptr<Deployment>* deployment,
                                      WindowTally* tally) {
  std::vector<SetupBatch> batches;
  size_t builds = 0;
  double clean_s = 0.0;
  const auto start = Clock::now();
  while ((clean_s < kMinSetupSeconds || builds < kMinSetups) &&
         SecondsSince(start) < kMinSetupSeconds * kMaxPhaseFactor) {
    SetupBatch& batch = batches.emplace_back();
    const WindowStart window;
    do {
      deployment->reset();  // measure each build from the same starting heap
      batch.builds.emplace_back();
      *deployment = BuildDeployment(kind, seed, builds++, &batch.builds.back());
    } while (SecondsSince(window.wall) < kSetupBatchSeconds);
    window.Close(&batch);
    if (Clean(batch)) clean_s += batch.wall_s;
  }
  const std::vector<size_t> keep = KeepLeastStolen(batches, kMinSetupSeconds);
  *tally = WindowTally::Of(batches, keep);
  std::vector<SetupTiming> kept;
  for (size_t i : keep) {
    kept.insert(kept.end(), batches[i].builds.begin(), batches[i].builds.end());
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Traced phase.

/// Sums over every replayed query of the traced phase.
struct TraceTotals {
  size_t replays = 0;
  size_t failed = 0;    // wrong answers, from the replay or from Run
  size_t too_long = 0;  // replays whose layers outlasted Run (kLayerSlack*)
  double replay_wall_ms = 0.0;
  double parse_us = 0.0, resolve_us = 0.0, plan_ms = 0.0, exchange_ms = 0.0;
  double match_ms = 0.0, lpm_enum_ms = 0.0, features_ms = 0.0;
  double prune_ms = 0.0, assembly_ms = 0.0, dedup_ms = 0.0, glue_ms = 0.0;
  double exchange_bytes = 0.0, exchange_variables = 0.0,
         exchange_skipped = 0.0;
  double lpms = 0.0, features = 0.0, surviving_features = 0.0;
  double prune_join_attempts = 0.0, assembly_join_attempts = 0.0,
         crossing = 0.0;
  double match_nodes = 0.0, log_q_error = 0.0, planned_sites = 0.0;
};

/// Replays the workload's queries through the layer functions and checks
/// each replay against Run on the same query. Single-client workloads walk
/// their block; serve-zipf walks every distinct instance once in its
/// permutation order. At least one full pass runs, then the phase stops
/// once `seconds` have passed.
TraceTotals RunTracedPhase(WorkloadKind kind, const Deployment& d,
                           const QueryMix& mix, double seconds,
                           SpanLog* log) {
  const bool serving = kind == WorkloadKind::kServeZipf;
  const size_t pass = serving ? mix.zipf_order.size() : mix.block.size();
  std::vector<std::optional<PlanQuality>> quality(mix.distinct.size());
  TraceTotals t;
  const auto start = Clock::now();
  for (size_t step = 0; step < pass || SecondsSince(start) < seconds;
       ++step) {
    const size_t pos = step % pass;
    const uint32_t index = serving ? mix.zipf_order[pos] : mix.block[pos];
    const DistinctQuery& q = mix.distinct[index];
    const uint32_t session_id = serving ? 0 : static_cast<uint32_t>(pos + 1);
    const gstored::FaultPlan plan = SessionFaultPlan(d.fault_plan, session_id);

    // Every layer time is part of the replay's critical path, so checking
    // that path against Run's wall time, timed separately, bounds them all.
    const size_t first_span = log->size();
    ReplayResult r;
    double run_ms = 0.0;
    bool fits = false;
    for (int attempt = 0; attempt < kReplayAttempts && !fits; ++attempt) {
      log->Truncate(first_span);  // a repeated replay replaces its spans
      r = ReplayQuery(*d.engine, q.sparql, plan, session_id, index, log);
      gstored::QuerySession session(d.engine->num_sites(), plan, session_id);
      gstored::QueryContext ctx;
      ctx.ledger = &session.ledger;
      ctx.transport = &session.transport;
      const auto run_start = Clock::now();
      const gstored::QueryOutcome outcome = d.engine->Run(
          gstored::QueryRequest(q.graph, gstored::EngineMode::kFull, ctx));
      run_ms = SecondsSince(run_start) * 1e3;
      if (!Correct(outcome, q) || r.matches != outcome.matches) {
        std::fprintf(stderr, "perfbench: replay of %s disagrees with Run\n",
                     q.name.c_str());
        ++t.failed;
      }
      fits = r.critical_path_ms <= kLayerSlackFactor * run_ms + kLayerSlackMs;
    }
    if (!fits) {
      std::fprintf(stderr,
                   "perfbench: replayed layers of %s took %.3f ms, Run "
                   "%.3f ms\n",
                   q.name.c_str(), r.critical_path_ms, run_ms);
      ++t.too_long;
    }

    if (!quality[index]) quality[index] = MeasurePlanQuality(*d.engine, q.graph);
    ++t.replays;
    t.replay_wall_ms += r.wall_ms;
    t.parse_us += r.parse_us;
    t.resolve_us += r.resolve_us;
    t.plan_ms += r.plan_ms;
    t.exchange_ms += r.exchange_ms;
    t.match_ms += r.match_ms;
    t.lpm_enum_ms += r.lpm_enum_ms;
    t.features_ms += r.features_ms;
    t.prune_ms += r.prune_ms;
    t.assembly_ms += r.assembly_ms;
    t.dedup_ms += r.dedup_ms;
    t.glue_ms += run_ms - r.critical_path_ms;
    t.exchange_bytes += static_cast<double>(r.exchange_bytes);
    t.exchange_variables += static_cast<double>(r.exchange_variables);
    t.exchange_skipped += static_cast<double>(r.exchange_skipped);
    t.lpms += static_cast<double>(r.lpms);
    t.features += static_cast<double>(r.features);
    t.surviving_features += static_cast<double>(r.surviving_features);
    t.prune_join_attempts += static_cast<double>(r.prune_join_attempts);
    t.assembly_join_attempts += static_cast<double>(r.assembly_join_attempts);
    t.crossing += static_cast<double>(r.crossing_matches);
    t.match_nodes += quality[index]->match_nodes;
    t.log_q_error += quality[index]->log_q_error;
    t.planned_sites += static_cast<double>(quality[index]->planned_sites);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The highest percentile of the p50, p90, p99, ... ladder with at least ten
/// of `n` samples beyond it. A fixed ladder keeps the percentile itself from
/// moving with the sample count between runs.
double LadderPercentile(size_t n) {
  double pct = 50.0;
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) pct = p;
  }
  return pct;
}

/// Nearest-rank percentile of `values`.
double Percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[rank > 0 ? rank - 1 : 0];
}

/// tail_ms and how it was taken. A run with fewer than two windows' worth of
/// samples takes the ladder percentile over all of them. A longer run is cut,
/// in completion order, into windows of at least kTailWindowSamples, and the
/// tail is the median over windows of each window's ladder percentile: the
/// machine stalls for a second or two at a time, and the top 0.1% of a whole
/// serving run is set by whether such a stall fell into it.
struct Tail {
  double ms = 0.0;
  double pct = 50.0;
  size_t windows = 1;
};

Tail TailLatency(const LoopResult& loop) {
  const size_t n = loop.latencies_ms.size();
  Tail tail;
  tail.windows = std::max<size_t>(1, n / kTailWindowSamples);
  if (tail.windows == 1) {
    tail.pct = LadderPercentile(n);
    tail.ms = Percentile(loop.latencies_ms, tail.pct);
    return tail;
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return loop.done_s[a] < loop.done_s[b];
  });
  tail.pct = LadderPercentile(n / tail.windows);
  std::vector<double> window_tails;
  for (size_t w = 0; w < tail.windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * n / tail.windows; i < (w + 1) * n / tail.windows;
         ++i) {
      window.push_back(loop.latencies_ms[order[i]]);
    }
    window_tails.push_back(Percentile(std::move(window), tail.pct));
  }
  tail.ms = Median(window_tails);
  return tail;
}

std::vector<Metric> EndToEndMetrics(const LoopResult& loop,
                                    const std::vector<SetupTiming>& setups) {
  const size_t n = loop.latencies_ms.size();
  const double queries = static_cast<double>(n);
  const Tail tail = TailLatency(loop);
  std::vector<double> setup_s, setup_mb;
  for (const SetupTiming& s : setups) {
    setup_s.push_back(s.total_s);
    setup_mb.push_back(s.heap_mb);
  }
  std::printf("  latency over all %zu samples:", n);
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (p > LadderPercentile(n)) break;
    std::printf(" p%g=%.4g", p, Percentile(loop.latencies_ms, p));
  }
  std::printf(" ms\n  tail_ms is p%g", tail.pct);
  if (tail.windows > 1) {
    std::printf(", median over %zu windows of %zu+ samples", tail.windows,
                n / tail.windows);
  }
  std::printf("\n");
  std::printf("  host steal: %.2f%% in the timed windows kept, %.2f%% in "
              "all; kept %zu of %zu\n",
              100.0 * loop.windows.kept_share, 100.0 * loop.windows.all_share,
              loop.windows.kept, loop.windows.total);
  // error_rate is never a JSON metric: it must read 0, and any failure
  // already fails the run.
  std::printf("  %-28s %14.6g fraction (%zu of %zu failed)\n", "error_rate",
              Ratio(static_cast<double>(loop.failed), queries), loop.failed,
              n);
  return {
      {"p50_ms", Median(loop.latencies_ms), "ms"},
      {"tail_ms", tail.ms, "ms"},
      {"qps", queries / loop.wall_s, "1/s"},
      {"cpu_ms_per_query", loop.cpu_s * 1e3 / queries, "ms"},
      {"shipment_kb_per_query", loop.shipment_bytes() / 1024.0 / queries,
       "KB"},
      {"setup_s", Median(setup_s), "s"},
      {"setup_mb", Median(setup_mb), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const LoopResult& loop,
                                    const TraceTotals& t,
                                    const std::vector<SetupTiming>& setups) {
  auto median_of = [&](double SetupTiming::*field) {
    std::vector<double> values;
    for (const SetupTiming& s : setups) values.push_back(s.*field);
    return Median(values);
  };
  const double queries = static_cast<double>(loop.latencies_ms.size());
  const double replays = static_cast<double>(t.replays);
  const double untraced_qps = queries / loop.wall_s;
  const double traced_qps = replays / (t.replay_wall_ms / 1e3);
  const double executed = static_cast<double>(loop.executed_tickets);
  const Counters& c = loop.counters;
  const double plan_lookups = static_cast<double>(c.plan_hits + c.plan_misses);
  return {
      {"workload.generate_s", median_of(&SetupTiming::generate_s), "s"},
      {"partition.build_s", median_of(&SetupTiming::partition_s), "s"},
      {"store.build_s", median_of(&SetupTiming::store_s), "s"},
      {"serve.start_s", median_of(&SetupTiming::serve_s), "s"},
      {"store.mb", median_of(&SetupTiming::store_mb), "MB"},
      {"sparql.parse_us", t.parse_us / replays, "us"},
      {"sparql.resolve_us", t.resolve_us / replays, "us"},
      {"plan.order_ms", t.plan_ms / replays, "ms"},
      {"plan.q_error", std::exp(Ratio(t.log_q_error, t.planned_sites)), "x"},
      {"store.match_ms", t.match_ms / replays, "ms"},
      {"store.match_nodes", t.match_nodes / replays, "count"},
      {"core.exchange_ms", t.exchange_ms / replays, "ms"},
      {"core.exchange_kb", t.exchange_bytes / 1024.0 / replays, "KB"},
      {"core.exchange_skipped_frac",
       Ratio(t.exchange_skipped, t.exchange_variables), "fraction"},
      {"core.lpm_enum_ms", t.lpm_enum_ms / replays, "ms"},
      {"core.lpms", t.lpms / replays, "count"},
      {"core.features_ms", t.features_ms / replays, "ms"},
      {"core.prune_ms", t.prune_ms / replays, "ms"},
      {"core.prune_join_attempts", t.prune_join_attempts / replays, "count"},
      {"core.prune_survival", Ratio(t.surviving_features, t.features),
       "fraction"},
      {"core.assembly_ms", t.assembly_ms / replays, "ms"},
      {"core.assembly_join_attempts", t.assembly_join_attempts / replays,
       "count"},
      {"core.assembly_yield", Ratio(t.crossing, t.assembly_join_attempts),
       "ratio"},
      {"core.dedup_ms", t.dedup_ms / replays, "ms"},
      {"net.wire_kb.candidates", loop.wire_candidates / 1024.0 / queries,
       "KB"},
      {"net.wire_kb.lec_features", loop.wire_lec / 1024.0 / queries, "KB"},
      {"net.wire_kb.lpm_shipment", loop.wire_lpm / 1024.0 / queries, "KB"},
      {"net.retries", loop.retries / queries, "count"},
      {"net.hedged_sites", loop.hedged / queries, "count"},
      {"net.glue_ms", t.glue_ms / replays, "ms"},
      {"serve.result_hit_ratio",
       Ratio(static_cast<double>(c.result_hits), queries), "fraction"},
      {"serve.plan_hit_ratio", Ratio(static_cast<double>(c.plan_hits),
                                     plan_lookups),
       "fraction"},
      {"serve.lpm_hits_per_exec",
       Ratio(static_cast<double>(c.lpm_hits), static_cast<double>(c.executed)),
       "count"},
      {"serve.coalesced_frac", Ratio(static_cast<double>(c.coalesced), queries),
       "fraction"},
      {"serve.queue_wait_ms", Ratio(loop.queue_wait_ms, executed), "ms"},
      {"serve.exec_ms", Ratio(loop.exec_ms, executed), "ms"},
      {"util.cpu_per_wall", loop.cpu_s / loop.wall_s, "ratio"},
      {"trace.qps_delta", traced_qps - untraced_qps, "1/s"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadKind kind;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkloadKind(args.workload, &kind)) {
    Usage();
    return 2;
  }

  std::unique_ptr<Deployment> deployment;
  WindowTally setup_windows;
  const std::vector<SetupTiming> setups =
      MeasureSetup(kind, args.seed, &deployment, &setup_windows);
  const QueryMix mix = BuildQueryMix(kind, args.seed, *deployment);
  std::printf("perfbench %s seed=%llu: %zu distinct queries, oracle %s, "
              "%zu engine threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              mix.distinct.size(), mix.oracle.c_str(),
              deployment->engine->options().num_threads);
  std::printf("  setup: median of %zu builds in %zu of %zu batches kept; "
              "steal %.2f%% in them, %.2f%% in all\n",
              setups.size(), setup_windows.kept, setup_windows.total,
              100.0 * setup_windows.kept_share,
              100.0 * setup_windows.all_share);

  if (!args.trace) {
    const LoopResult loop =
        RunLoop(kind, *deployment, mix, args.seed, args.seconds);
    const size_t attempted = loop.latencies_ms.size();
    PrintResult(loop.failed == 0, attempted, loop.failed,
                EndToEndMetrics(loop, setups));
    return loop.failed == 0 ? 0 : 1;
  }

  // Traced run: half the time untraced (counters, untraced qps), half
  // replaying through the layer functions with spans.
  const LoopResult loop =
      RunLoop(kind, *deployment, mix, args.seed, args.seconds / 2.0);
  SpanLog log;
  const TraceTotals totals =
      RunTracedPhase(kind, *deployment, mix, args.seconds / 2.0, &log);
  if (!args.spans_path.empty()) {
    std::vector<std::string> names;
    for (const DistinctQuery& q : mix.distinct) names.push_back(q.name);
    if (!log.WriteJsonLines(args.spans_path, names)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      return 1;
    }
    std::printf("  %zu spans written to %s\n", log.size(),
                args.spans_path.c_str());
  }
  const size_t attempted = loop.latencies_ms.size() + totals.replays;
  const size_t failed = loop.failed + totals.failed + totals.too_long;
  PrintResult(failed == 0, attempted, failed,
              PerLayerMetrics(loop, totals, setups));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
