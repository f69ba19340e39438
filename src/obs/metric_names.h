#ifndef PSPC_SRC_OBS_METRIC_NAMES_H_
#define PSPC_SRC_OBS_METRIC_NAMES_H_

#include <cstddef>
#include <span>
#include <string_view>

/// The process metric catalog: every name the instrumented subsystems
/// register, in one place, so the instrumentation sites, the schema
/// checker (tools/metrics_schema_check.cc), the tests, and the README
/// catalog can never drift apart. A metrics snapshot that contains a
/// name absent from this header — or a serving/dynamic run whose
/// snapshot is missing one of the required names below — fails the CI
/// schema check.
///
/// Naming: `<subsystem>.<what>[_total|_us|...]`. `_total` = monotonic
/// counter; `_us` = microsecond latency histogram; bare gauges carry a
/// point-in-time value. The Prometheus rendering prefixes `pspc_` and
/// rewrites `.` to `_`.
namespace pspc {
namespace obs {

/// Version stamped into every `MetricsRegistry::ToJson` snapshot; bump
/// when the snapshot layout (not the metric set) changes shape.
inline constexpr int kMetricsSchemaVersion = 1;

// ------------------------------------------------------ serving layer
inline constexpr char kServeQueriesTotal[] = "serve.queries_total";
inline constexpr char kServeMicroBatchesTotal[] = "serve.micro_batches_total";
inline constexpr char kServeCacheHitsTotal[] = "serve.cache_hits_total";
inline constexpr char kServeCacheMissesTotal[] = "serve.cache_misses_total";
inline constexpr char kServeUpdatesAppliedTotal[] =
    "serve.updates_applied_total";
inline constexpr char kServeGenerationsPublishedTotal[] =
    "serve.generations_published_total";
inline constexpr char kServeSnapshotsReclaimedTotal[] =
    "serve.snapshots_reclaimed_total";
inline constexpr char kServePublishCopiedVerticesTotal[] =
    "serve.publish_copied_vertices_total";
inline constexpr char kServeTracesSampledTotal[] =
    "serve.traces_sampled_total";
inline constexpr char kServeTracesSlowTotal[] = "serve.traces_slow_total";
/// Raw label bytes (16 per `LabelEntry`, both sides) the merges of
/// uncached queries read; queries always merge raw entries.
inline constexpr char kServeLabelBytesMergedTotal[] =
    "serve.label_bytes.merged_total";

inline constexpr char kServePublishedGeneration[] =
    "serve.published_generation";
inline constexpr char kServeSnapshotsRetiredPending[] =
    "serve.snapshots_retired_pending";
inline constexpr char kServePublishCopiedVerticesLast[] =
    "serve.publish_copied_vertices_last";
inline constexpr char kServeQueueDepth[] = "serve.queue_depth";
inline constexpr char kServeQueueCapacity[] = "serve.queue_capacity";

inline constexpr char kServeQueryLatencyUs[] = "serve.query_latency_us";
inline constexpr char kServeQueryLatencyCacheHitUs[] =
    "serve.query_latency_cache_hit_us";
inline constexpr char kServeQueryLatencyMergeUs[] =
    "serve.query_latency_merge_us";
inline constexpr char kServeQueueWaitUs[] = "serve.queue_wait_us";
inline constexpr char kServeMicroBatchSize[] = "serve.micro_batch_size";
inline constexpr char kServeUpdateLatencyUs[] = "serve.update_latency_us";
inline constexpr char kServePublishUs[] = "serve.publish_us";
inline constexpr char kServePublishCopiedVertices[] =
    "serve.publish_copied_vertices";
/// How long one worker micro-batch held its snapshot ref.
inline constexpr char kServeReaderPinUs[] = "serve.reader_pin_us";
/// Raw label bytes one uncached query's merge read.
inline constexpr char kServeLabelBytesPerQuery[] =
    "serve.label_bytes.per_query";

// ------------------------------------------------------ dynamic layer
inline constexpr char kDynamicInsertionsAppliedTotal[] =
    "dynamic.insertions_applied_total";
inline constexpr char kDynamicDeletionsAppliedTotal[] =
    "dynamic.deletions_applied_total";
inline constexpr char kDynamicBatchesAppliedTotal[] =
    "dynamic.batches_applied_total";
inline constexpr char kDynamicUpdatesCoalescedTotal[] =
    "dynamic.updates_coalesced_total";
inline constexpr char kDynamicResumedBfsRunsTotal[] =
    "dynamic.resumed_bfs_runs_total";
inline constexpr char kDynamicFullHubRepairsTotal[] =
    "dynamic.full_hub_repairs_total";
inline constexpr char kDynamicSubtractRepairsTotal[] =
    "dynamic.subtract_repairs_total";
inline constexpr char kDynamicEntriesInsertedTotal[] =
    "dynamic.entries_inserted_total";
inline constexpr char kDynamicEntriesRenewedTotal[] =
    "dynamic.entries_renewed_total";
inline constexpr char kDynamicEntriesErasedTotal[] =
    "dynamic.entries_erased_total";
inline constexpr char kDynamicRebuildsTotal[] = "dynamic.rebuilds_total";

inline constexpr char kDynamicGeneration[] = "dynamic.generation";
inline constexpr char kDynamicOverlayEntries[] = "dynamic.overlay_entries";
inline constexpr char kDynamicOverlayVertices[] = "dynamic.overlay_vertices";
inline constexpr char kDynamicBaseEntries[] = "dynamic.base_entries";
inline constexpr char kDynamicRebuildInProgress[] =
    "dynamic.rebuild_in_progress";

// --------------------------------------------------------- ops plane
inline constexpr char kObsHealthStatus[] = "obs.health_status";
inline constexpr char kObsHealthTransitionsTotal[] =
    "obs.health_transitions_total";

inline constexpr char kDynamicPlanUs[] = "dynamic.plan_us";
inline constexpr char kDynamicRepairUs[] = "dynamic.repair_us";
inline constexpr char kDynamicRebuildUs[] = "dynamic.rebuild_us";

// ----------------------------------------------------------- catalogs
inline constexpr std::string_view kCounterNames[] = {
    kServeQueriesTotal,
    kServeMicroBatchesTotal,
    kServeCacheHitsTotal,
    kServeCacheMissesTotal,
    kServeUpdatesAppliedTotal,
    kServeGenerationsPublishedTotal,
    kServeSnapshotsReclaimedTotal,
    kServePublishCopiedVerticesTotal,
    kServeTracesSampledTotal,
    kServeTracesSlowTotal,
    kServeLabelBytesMergedTotal,
    kDynamicInsertionsAppliedTotal,
    kDynamicDeletionsAppliedTotal,
    kDynamicBatchesAppliedTotal,
    kDynamicUpdatesCoalescedTotal,
    kDynamicResumedBfsRunsTotal,
    kDynamicFullHubRepairsTotal,
    kDynamicSubtractRepairsTotal,
    kDynamicEntriesInsertedTotal,
    kDynamicEntriesRenewedTotal,
    kDynamicEntriesErasedTotal,
    kDynamicRebuildsTotal,
    kObsHealthTransitionsTotal,
};

inline constexpr std::string_view kGaugeNames[] = {
    kServePublishedGeneration,
    kServeSnapshotsRetiredPending,
    kServePublishCopiedVerticesLast,
    kServeQueueDepth,
    kServeQueueCapacity,
    kDynamicGeneration,
    kDynamicOverlayEntries,
    kDynamicOverlayVertices,
    kDynamicBaseEntries,
    kDynamicRebuildInProgress,
    kObsHealthStatus,
};

inline constexpr std::string_view kHistogramNames[] = {
    kServeQueryLatencyUs,
    kServeQueryLatencyCacheHitUs,
    kServeQueryLatencyMergeUs,
    kServeQueueWaitUs,
    kServeMicroBatchSize,
    kServeUpdateLatencyUs,
    kServePublishUs,
    kServePublishCopiedVertices,
    kServeReaderPinUs,
    kServeLabelBytesPerQuery,
    kDynamicPlanUs,
    kDynamicRepairUs,
    kDynamicRebuildUs,
};

/// Names a `spc_cli serve --metrics-json` snapshot must contain (the
/// acceptance bar: query latency, queue wait, publish cost, cache hit
/// rate, plus the counters the engine's own ServingCounters report).
inline constexpr std::string_view kRequiredServeMetrics[] = {
    kServeQueriesTotal,
    kServeMicroBatchesTotal,
    kServeCacheHitsTotal,
    kServeCacheMissesTotal,
    kServeUpdatesAppliedTotal,
    kServeGenerationsPublishedTotal,
    kServePublishCopiedVerticesTotal,
    kServePublishedGeneration,
    kServeQueryLatencyUs,
    kServeQueueWaitUs,
    kServeMicroBatchSize,
    kServePublishUs,
    kServePublishCopiedVertices,
    kServeReaderPinUs,
    kServeLabelBytesMergedTotal,
    kServeLabelBytesPerQuery,
};

/// Names any run that applied updates through a dynamic index must
/// contain.
inline constexpr std::string_view kRequiredDynamicMetrics[] = {
    kDynamicInsertionsAppliedTotal,
    kDynamicDeletionsAppliedTotal,
    kDynamicBatchesAppliedTotal,
    kDynamicGeneration,
    kDynamicOverlayEntries,
    kDynamicRepairUs,
};

/// True iff `name` appears in any of the three catalogs above.
inline bool IsKnownMetricName(std::string_view name) {
  for (const auto known : kCounterNames) {
    if (name == known) return true;
  }
  for (const auto known : kGaugeNames) {
    if (name == known) return true;
  }
  for (const auto known : kHistogramNames) {
    if (name == known) return true;
  }
  return false;
}

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_METRIC_NAMES_H_
