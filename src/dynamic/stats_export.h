#ifndef PSPC_SRC_DYNAMIC_STATS_EXPORT_H_
#define PSPC_SRC_DYNAMIC_STATS_EXPORT_H_

#include <cstddef>
#include <cstdint>

#include "src/dynamic/repair_core.h"
#include "src/obs/metrics.h"

/// Bridges the dynamic layer's `DynamicStats` into the metrics
/// registry so the two reporting paths can never disagree: the repair
/// kernels keep accumulating into the single-writer `DynamicStats`
/// struct they always have (exact, no atomics in the BFS inner loops),
/// and after every public mutation the owning index calls
/// `ExportDelta`, which pushes the since-last-export difference of
/// each field into the corresponding registry counter. Both views are
/// fed by the identical deltas in the same code path, so
/// `Stats().resumed_bfs_runs == dynamic.resumed_bfs_runs_total` holds
/// at every quiesce point by construction.
///
/// The exporter also owns the dynamic layer's stage-timing histograms
/// (plan/repair/rebuild) and point-in-time gauges (generation, overlay
/// size) so each index wires exactly one object.
namespace pspc {
namespace obs {

class DynamicStatsExporter {
 public:
  /// `registry == nullptr` selects the process-global registry.
  explicit DynamicStatsExporter(MetricsRegistry* registry = nullptr);

  DynamicStatsExporter(const DynamicStatsExporter&) = delete;
  DynamicStatsExporter& operator=(const DynamicStatsExporter&) = delete;

  /// Adds `now - <last exported>` of every monotonic field to the
  /// registry counters. Single-writer (the index's thread of control);
  /// calling with an unchanged snapshot is a no-op, so redundant calls
  /// on nested mutation paths are safe.
  void ExportDelta(const DynamicStats& now);

  /// Point-in-time state published after each mutation.
  void SetGauges(uint64_t generation, size_t overlay_entries,
                 size_t overlay_vertices, size_t base_entries);

  /// 1 while a staleness rebuild is running, 0 otherwise — the health
  /// watchdog reports a long-running rebuild as DEGRADED rather than
  /// misreading its publish gap as a stall.
  Gauge* rebuild_in_progress() const { return rebuild_in_progress_; }

  /// Stage-timing histograms (microseconds) the index records into
  /// directly: batch-plan validation/coalescing, label repair, and
  /// staleness rebuild.
  Histogram* plan_us() const { return plan_us_; }
  Histogram* repair_us() const { return repair_us_; }
  Histogram* rebuild_us() const { return rebuild_us_; }

  MetricsRegistry* registry() const { return registry_; }

 private:
  MetricsRegistry* registry_;
  DynamicStats last_{};

  Counter* insertions_applied_;
  Counter* deletions_applied_;
  Counter* batches_applied_;
  Counter* updates_coalesced_;
  Counter* resumed_bfs_runs_;
  Counter* full_hub_repairs_;
  Counter* subtract_repairs_;
  Counter* entries_inserted_;
  Counter* entries_renewed_;
  Counter* entries_erased_;
  Counter* rebuilds_;

  Gauge* generation_;
  Gauge* overlay_entries_;
  Gauge* overlay_vertices_;
  Gauge* base_entries_;
  Gauge* rebuild_in_progress_;

  Histogram* plan_us_;
  Histogram* repair_us_;
  Histogram* rebuild_us_;
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_STATS_EXPORT_H_
