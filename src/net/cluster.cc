#include "net/cluster.h"

#include "util/logging.h"

namespace gstored {

ShipmentLedger::ShipmentLedger() : counters_(kMaxStages) {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

ShipmentLedger::StageId ShipmentLedger::Intern(std::string_view stage) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(stage);
  if (it != ids_.end()) return it->second;
  GSTORED_CHECK_LT(names_.size(), kMaxStages);
  StageId id = static_cast<StageId>(names_.size());
  names_.emplace_back(stage);
  ids_.emplace(names_.back(), id);
  return id;
}

void ShipmentLedger::Add(StageId stage, size_t bytes) {
  if (stage == kUnaccounted) return;
  counters_[stage].fetch_add(bytes, std::memory_order_relaxed);
}

size_t ShipmentLedger::StageBytes(StageId stage) const {
  if (stage == kUnaccounted) return 0;
  return counters_[stage].load(std::memory_order_relaxed);
}

size_t ShipmentLedger::StageBytes(std::string_view stage) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(stage);
  if (it == ids_.end()) return 0;
  return counters_[it->second].load(std::memory_order_relaxed);
}

size_t ShipmentLedger::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (size_t i = 0; i < names_.size(); ++i) {
    total += counters_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::pair<std::string, size_t>> ShipmentLedger::Breakdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, size_t>> out;
  // ids_ iterates in name order; zero-byte stages are omitted so interned-
  // but-unused labels do not change the Tables I-III output.
  for (const auto& [name, id] : ids_) {
    size_t bytes = counters_[id].load(std::memory_order_relaxed);
    if (bytes > 0) out.emplace_back(name, bytes);
  }
  return out;
}

}  // namespace gstored
