#ifndef PSPC_SRC_SERVE_SNAPSHOT_MANAGER_H_
#define PSPC_SRC_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/serve/index_snapshot.h"

/// RCU-style publication of `IndexSnapshot` generations, freed by
/// reference count.
///
/// The current snapshot is a `shared_ptr` behind one leaf mutex:
/// Acquire() copies it, Publish() swaps in the next one. A reader
/// queries its copy for as long as it holds it; a held ref keeps only
/// its own generation alive. The writer keeps each swapped-out
/// snapshot on a retired list and frees an entry once the list holds
/// its last reference — a snapshot off `current_` can gain no new one —
/// so while the manager lives, snapshots are freed on the writer
/// thread, never by a reader.
namespace pspc {

class SnapshotManager {
 public:
  /// `registry == nullptr` selects the process-global registry for the
  /// publication metrics (publish cost, reclaim backlog);
  /// `recorder == nullptr` likewise selects the global flight recorder
  /// for publish/reclaim events.
  explicit SnapshotManager(std::unique_ptr<const IndexSnapshot> initial,
                           obs::MetricsRegistry* registry = nullptr,
                           obs::FlightRecorder* recorder = nullptr);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Reader-side: the currently published snapshot. Waits at most for
  /// one pointer copy or swap under `mu_`. The ref may outlive the
  /// manager.
  std::shared_ptr<const IndexSnapshot> Acquire() const EXCLUDES(mu_);

  /// Writer-side (externally serialized): makes `next` the current
  /// snapshot, retires the previous one, and frees every retired
  /// generation no reader still holds. Freeing a snapshot releases its
  /// overlay page and label-chunk references — chunks shared with
  /// newer generations live on; chunks only the retired generation
  /// could reach are freed here.
  void Publish(std::unique_ptr<const IndexSnapshot> next) EXCLUDES(mu_);

  /// Generation of the currently published snapshot.
  uint64_t PublishedGeneration() const { return Acquire()->Generation(); }

  /// Retired-but-not-yet-reclaimed generations. Readable from any
  /// thread (relaxed mirror of the writer's list size).
  size_t RetiredCount() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  /// Generations freed so far. Readable from any thread.
  size_t ReclaimedCount() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  /// Publish-cost bookkeeping (readable from any thread): vertices
  /// whose label chunk the most recent / every Publish had to copy —
  /// the O(delta) the persistent overlay buys (the map-copy design
  /// paid the whole overlay per publish).
  size_t LastPublishCopiedVertices() const {
    return copied_last_.load(std::memory_order_relaxed);
  }
  size_t TotalPublishCopiedVertices() const {
    return copied_total_.load(std::memory_order_relaxed);
  }

  /// Wall cost of the most recent Publish's reclaim sweep
  /// (microseconds; the write-path trace's reclaim span).
  double LastReclaimMicros() const {
    return last_reclaim_us_.load(std::memory_order_relaxed);
  }

 private:
  void Reclaim();

  mutable spc::Mutex mu_{spc::LockRank::kSnapshotManager};
  std::shared_ptr<const IndexSnapshot> current_ GUARDED_BY(mu_);
  // Writer thread only: swapped-out generations, each freed once this
  // list holds its last reference.
  std::vector<std::shared_ptr<const IndexSnapshot>> retired_;
  // Writer-updated, any-thread-readable mirrors of the bookkeeping
  // above (Counters() polls them without the writer mutex).
  std::atomic<size_t> retired_count_{0};
  std::atomic<size_t> reclaimed_{0};
  std::atomic<size_t> copied_last_{0};
  std::atomic<size_t> copied_total_{0};
  std::atomic<double> last_reclaim_us_{0.0};

  // Registry handles (resolved once at construction).
  obs::Counter* reclaimed_total_counter_;
  obs::Counter* copied_total_counter_;
  obs::Gauge* retired_pending_gauge_;
  obs::Gauge* copied_last_gauge_;
  obs::Histogram* copied_hist_;
  obs::FlightRecorder* recorder_;
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_SNAPSHOT_MANAGER_H_
