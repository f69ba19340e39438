#include "src/dynamic/stats_export.h"

#include "src/obs/metric_names.h"

namespace pspc {
namespace obs {

DynamicStatsExporter::DynamicStatsExporter(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      insertions_applied_(
          registry_->GetCounter(kDynamicInsertionsAppliedTotal)),
      deletions_applied_(registry_->GetCounter(kDynamicDeletionsAppliedTotal)),
      batches_applied_(registry_->GetCounter(kDynamicBatchesAppliedTotal)),
      updates_coalesced_(registry_->GetCounter(kDynamicUpdatesCoalescedTotal)),
      resumed_bfs_runs_(registry_->GetCounter(kDynamicResumedBfsRunsTotal)),
      full_hub_repairs_(registry_->GetCounter(kDynamicFullHubRepairsTotal)),
      subtract_repairs_(registry_->GetCounter(kDynamicSubtractRepairsTotal)),
      entries_inserted_(registry_->GetCounter(kDynamicEntriesInsertedTotal)),
      entries_renewed_(registry_->GetCounter(kDynamicEntriesRenewedTotal)),
      entries_erased_(registry_->GetCounter(kDynamicEntriesErasedTotal)),
      rebuilds_(registry_->GetCounter(kDynamicRebuildsTotal)),
      generation_(registry_->GetGauge(kDynamicGeneration)),
      overlay_entries_(registry_->GetGauge(kDynamicOverlayEntries)),
      overlay_vertices_(registry_->GetGauge(kDynamicOverlayVertices)),
      base_entries_(registry_->GetGauge(kDynamicBaseEntries)),
      rebuild_in_progress_(registry_->GetGauge(kDynamicRebuildInProgress)),
      plan_us_(registry_->GetHistogram(kDynamicPlanUs)),
      repair_us_(registry_->GetHistogram(kDynamicRepairUs)),
      rebuild_us_(registry_->GetHistogram(kDynamicRebuildUs)) {}

void DynamicStatsExporter::ExportDelta(const DynamicStats& now) {
  const auto push = [](Counter* counter, size_t current, size_t previous) {
    if (current > previous) {
      counter->Increment(static_cast<uint64_t>(current - previous));
    }
  };
  push(insertions_applied_, now.insertions_applied, last_.insertions_applied);
  push(deletions_applied_, now.deletions_applied, last_.deletions_applied);
  push(batches_applied_, now.batches_applied, last_.batches_applied);
  push(updates_coalesced_, now.updates_coalesced, last_.updates_coalesced);
  push(resumed_bfs_runs_, now.resumed_bfs_runs, last_.resumed_bfs_runs);
  push(full_hub_repairs_, now.affected_hubs, last_.affected_hubs);
  push(subtract_repairs_, now.subtract_repairs, last_.subtract_repairs);
  push(entries_inserted_, now.entries_inserted, last_.entries_inserted);
  push(entries_renewed_, now.entries_renewed, last_.entries_renewed);
  push(entries_erased_, now.entries_erased, last_.entries_erased);
  push(rebuilds_, now.rebuilds, last_.rebuilds);
  last_ = now;
}

void DynamicStatsExporter::SetGauges(uint64_t generation,
                                     size_t overlay_entries,
                                     size_t overlay_vertices,
                                     size_t base_entries) {
  generation_->Set(static_cast<int64_t>(generation));
  overlay_entries_->Set(static_cast<int64_t>(overlay_entries));
  overlay_vertices_->Set(static_cast<int64_t>(overlay_vertices));
  base_entries_->Set(static_cast<int64_t>(base_entries));
}

}  // namespace obs
}  // namespace pspc
