#ifndef GSTORED_NET_FAULT_H_
#define GSTORED_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <set>

namespace gstored {

/// Fixed pipeline stage ordinals — the `stage` coordinate of every wire
/// message and fault decision. The ordinals are identical across all
/// EngineModes (a mode that skips a stage simply never reaches its ordinal),
/// so one FaultPlan targets the same protocol step at every ablation level.
/// Fault plans and tests address stages by number, so a deleted stage's
/// ordinal (0) is not reused.
enum class QueryStage : uint32_t {
  kCandidateFilters = 1,  ///< Alg. 4 candidate sets up, union broadcast down
  kPartialEval = 2,       ///< local matches to the coordinator
  kLecFeatures = 3,       ///< LEC features up, survivor bitmap down
  kLpmShipment = 4,       ///< surviving LPM batches to the coordinator
};

constexpr uint32_t StageOrdinal(QueryStage s) {
  return static_cast<uint32_t>(s);
}

/// Per-site fault knobs. Every stochastic decision below is a pure hash of
/// (plan seed, site, stage, attempt, seq, direction) — no shared RNG stream —
/// so the injected fault pattern is byte-identical across runs and thread
/// interleavings: the precondition for the deterministic-replay guarantee
/// (same FaultPlan seed => identical ledger and query outcome).
struct SiteFaultSpec {
  /// Site stops responding from this QueryStage ordinal onward (it neither
  /// executes stages nor receives broadcasts). -1 = never crashes.
  int crash_at_stage = -1;

  /// Per-message loss probability (responses and broadcasts alike). Each
  /// retransmission attempt redraws, so retries can recover.
  double drop_prob = 0.0;

  /// Per-message duplication probability: the message is delivered twice;
  /// receivers deduplicate by sequence number.
  double duplicate_prob = 0.0;

  /// Injected per-message latency: an exponential draw with this mean plus a
  /// uniform jitter. Latency is *virtual* — it feeds the deadline/straggler
  /// logic and the queue-wait timing columns, but nothing actually sleeps,
  /// so fault tests stay fast and deterministic.
  double latency_mean_ms = 0.0;
  double latency_jitter_ms = 0.0;

  /// A stuck site: its messages never arrive within any deadline. Unlike a
  /// crash the site is alive (hedging against the coordinator-local
  /// fragment copy recovers its work exactly).
  bool straggler = false;

  /// Drop every message of these stage ordinals (both directions),
  /// regardless of drop_prob — used to kill one protocol stage (e.g. the
  /// candidate-filter exchange) while leaving the rest healthy.
  std::set<uint32_t> drop_message_stages;
};

/// A seeded, deterministic fault-injection plan for the in-process
/// transport. Default-constructed = no faults.
struct FaultPlan {
  uint64_t seed = 0;

  /// Scramble per-site delivery order before reassembly (receivers restore
  /// sequence order, so this must never change results).
  bool reorder = false;

  /// Fault spec applied to every site without an override.
  SiteFaultSpec default_fault;
  std::map<int, SiteFaultSpec> site_overrides;

  const SiteFaultSpec& ForSite(int site) const;

  /// True when `site` has crashed at or before `stage`.
  bool SiteDead(int site, uint32_t stage) const;

  bool Drop(int site, uint32_t stage, uint32_t attempt, uint32_t seq,
            bool to_site) const;
  bool Duplicate(int site, uint32_t stage, uint32_t attempt, uint32_t seq,
                 bool to_site) const;

  /// Virtual delivery latency in milliseconds (infinite for stragglers).
  double LatencyMs(int site, uint32_t stage, uint32_t attempt, uint32_t seq,
                   bool to_site) const;

  /// Deterministic shuffle key for reorder simulation.
  uint64_t ReorderKey(int site, uint32_t stage, uint32_t attempt,
                      uint32_t seq) const;
};

}  // namespace gstored

#endif  // GSTORED_NET_FAULT_H_
