#include "dora/plan_advisor.h"

namespace doradb {
namespace dora {

PlanAdvisor::TypeStats& PlanAdvisor::StatsFor(uint32_t txn_type) const {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = stats_[txn_type];
  if (slot == nullptr) slot = std::make_unique<TypeStats>();
  return *slot;
}

void PlanAdvisor::RecordOutcome(uint32_t txn_type, bool aborted) {
  TypeStats& s = StatsFor(txn_type);
  const uint64_t total = s.total.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t ab =
      s.aborted.fetch_add(aborted ? 1 : 0, std::memory_order_relaxed) +
      (aborted ? 1 : 0);
  if (total < options_.min_samples) return;
  const double rate = static_cast<double>(ab) / static_cast<double>(total);
  if (rate > options_.serial_threshold) {
    s.serial.store(true, std::memory_order_relaxed);
  } else if (rate < options_.serial_threshold - options_.hysteresis) {
    s.serial.store(false, std::memory_order_relaxed);
  }
}

bool PlanAdvisor::RecommendSerial(uint32_t txn_type) const {
  return StatsFor(txn_type).serial.load(std::memory_order_relaxed);
}

double PlanAdvisor::AbortRate(uint32_t txn_type) const {
  TypeStats& s = StatsFor(txn_type);
  const uint64_t total = s.total.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  return static_cast<double>(s.aborted.load(std::memory_order_relaxed)) /
         static_cast<double>(total);
}

}  // namespace dora
}  // namespace doradb
