#include "src/serve/snapshot_manager.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/obs/metric_names.h"

namespace pspc {

SnapshotManager::SnapshotManager(std::unique_ptr<const IndexSnapshot> initial,
                                 obs::MetricsRegistry* registry,
                                 obs::FlightRecorder* recorder)
    : recorder_(recorder != nullptr ? recorder
                                    : &obs::FlightRecorder::Global()) {
  PSPC_CHECK(initial != nullptr);
  {
    // Locked for the thread-safety analysis; nothing shares the object
    // yet.
    spc::MutexLock lock(mu_);
    current_ = std::move(initial);
  }
  if (registry == nullptr) registry = &obs::MetricsRegistry::Global();
  reclaimed_total_counter_ =
      registry->GetCounter(obs::kServeSnapshotsReclaimedTotal);
  copied_total_counter_ =
      registry->GetCounter(obs::kServePublishCopiedVerticesTotal);
  retired_pending_gauge_ =
      registry->GetGauge(obs::kServeSnapshotsRetiredPending);
  copied_last_gauge_ = registry->GetGauge(obs::kServePublishCopiedVerticesLast);
  copied_hist_ = registry->GetHistogram(obs::kServePublishCopiedVertices);
}

std::shared_ptr<const IndexSnapshot> SnapshotManager::Acquire() const {
  spc::MutexLock lock(mu_);
  return current_;
}

void SnapshotManager::Publish(std::unique_ptr<const IndexSnapshot> next) {
  PSPC_CHECK(next != nullptr);
  const size_t copied = next->CopiedVertices();
  const uint64_t generation = next->Generation();
  // relaxed: statistics mirrors; Publish is writer-serialized and
  // pollers tolerate trailing values.
  copied_last_.store(copied, std::memory_order_relaxed);
  copied_total_.fetch_add(copied, std::memory_order_relaxed);
  copied_total_counter_->Increment(copied);
  copied_last_gauge_->Set(static_cast<int64_t>(copied));
  copied_hist_->Record(static_cast<double>(copied));
  std::shared_ptr<const IndexSnapshot> old;
  {
    spc::MutexLock lock(mu_);
    old = std::exchange(current_, std::move(next));
  }
  retired_.push_back(std::move(old));
  Reclaim();
  recorder_->Record(obs::FlightEventKind::kPublish, generation,
                    static_cast<uint64_t>(copied),
                    static_cast<uint64_t>(retired_.size()));
}

void SnapshotManager::Reclaim() {
  WallTimer timer;
  // A retired snapshot is off current_, so no reader can take a new
  // ref to it: once this list holds the only one, it is free to go.
  const auto dead = std::partition(
      retired_.begin(), retired_.end(),
      [](const std::shared_ptr<const IndexSnapshot>& snapshot) {
        return snapshot.use_count() > 1;
      });
  const size_t freed = static_cast<size_t>(retired_.end() - dead);
  retired_.erase(dead, retired_.end());
  const double micros = timer.ElapsedMicros();
  reclaimed_total_counter_->Increment(freed);
  retired_pending_gauge_->Set(static_cast<int64_t>(retired_.size()));
  // relaxed: reclaim tally and statistics mirrors of writer-serialized
  // state, read by pollers that tolerate staleness.
  reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  retired_count_.store(retired_.size(), std::memory_order_relaxed);
  last_reclaim_us_.store(micros, std::memory_order_relaxed);
  if (freed > 0) {
    recorder_->Record(obs::FlightEventKind::kReclaim, freed, retired_.size(),
                      static_cast<uint64_t>(micros));
  }
}

}  // namespace pspc
