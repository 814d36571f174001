#ifndef GSTORED_NET_CLUSTER_H_
#define GSTORED_NET_CLUSTER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gstored {

/// Thread-safe ledger of simulated network traffic, the stand-in for the
/// paper's MPI layer. Every byte a site would put on the wire is recorded
/// here under a stage label ("candidates", "lec_features", "lpm_shipment"),
/// which is exactly the "Data Shipment" column of Tables I-III.
///
/// The hot path is lock-free: stage labels are interned once into dense
/// StageIds and each stage owns a plain atomic counter, so concurrent
/// per-message Adds from every site thread never contend on a global mutex
/// (the old string-keyed map did). The mutex only guards the cold intern
/// table.
class ShipmentLedger {
 public:
  using StageId = uint32_t;

  /// Sentinel accepted by Add(StageId, ...) as "do not account" — used by
  /// the transport for control-plane and result messages that are not part
  /// of the paper's data-shipment metric.
  static constexpr StageId kUnaccounted = ~StageId{0};

  /// Fixed counter capacity: StageIds index a pre-sized atomic array so the
  /// lock-free Add never races a container reallocation.
  static constexpr size_t kMaxStages = 64;

  ShipmentLedger();

  /// Returns the dense id for `stage`, creating it on first use.
  StageId Intern(std::string_view stage);

  /// Records `bytes` of traffic attributed to an interned stage (lock-free).
  void Add(StageId stage, size_t bytes);

  /// Total bytes recorded for one stage.
  size_t StageBytes(std::string_view stage) const;
  size_t StageBytes(StageId stage) const;

  /// Total bytes across all stages.
  size_t TotalBytes() const;

  /// All (stage, bytes) pairs with non-zero counts, sorted by stage name
  /// (the Tables I-III output order).
  std::vector<std::pair<std::string, size_t>> Breakdown() const;

 private:
  mutable std::mutex mu_;  // guards names_ / ids_ only
  std::map<std::string, StageId, std::less<>> ids_;
  std::vector<std::string> names_;
  std::vector<std::atomic<size_t>> counters_;
};

}  // namespace gstored

#endif  // GSTORED_NET_CLUSTER_H_
