#ifndef PSPC_SRC_SERVE_SERVING_ENGINE_H_
#define PSPC_SRC_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/label/query_engine.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/request_queue.h"
#include "src/serve/result_cache.h"
#include "src/serve/snapshot_manager.h"

/// The concurrent serving front-end: queries run against published
/// snapshots while edge repairs apply, so a reader waits at most for
/// one pointer copy or swap under `SnapshotManager::mu_`, never for a
/// repair.
///
/// Wiring: client threads Submit single queries or batches into the
/// bounded MPMC queue; a worker pool drains it in adaptive
/// micro-batches, acquires one snapshot ref per micro-batch, consults
/// the sharded generation-tagged result cache, and answers the rest
/// from that `IndexSnapshot` (the §IV parallel-batch kernel's merge
/// path). The write side — ApplyUpdate(s) — is serialized on a writer
/// mutex no reader ever touches: it repairs the dynamic index (either
/// edge direction) and publishes a fresh snapshot generation, which
/// retires the previous one until its last reader lets go.
///
/// Every answer is exact for the generation it was computed against;
/// a query admitted before a publish may be answered from the prior
/// generation (standard RCU semantics). After Drain() with no write in
/// flight, answers are exact for the current graph.
namespace pspc {

struct ServingOptions {
  /// Query worker threads (<= 0: all cores).
  int num_workers = 0;
  /// Micro-batch cap: the most queries one snapshot ref spans.
  size_t max_batch = 64;
  /// Result-cache entries per shard; zero disables caching.
  size_t cache_capacity_per_shard = 1 << 14;
  /// Registry receiving the `serve.*` metrics (latency histograms,
  /// counters, publication gauges). Null selects the process-global
  /// registry. Note the index's `dynamic.*` metrics follow the
  /// registry *it* was configured with, not this one.
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace one in N submitted queries (0 = tracing off). Sampling is
  /// deterministic: the k-th submission (process-wide order) is traced
  /// iff `k % n == trace_seed % n`.
  uint64_t trace_sample_every_n = 0;
  uint64_t trace_seed = 0;
  /// Traced queries slower than this end-to-end (microseconds) land in
  /// the bounded slow-trace log (`Traces().SlowTraceLog()`).
  double slow_trace_us = 10'000.0;
  size_t slow_trace_capacity = 64;
  /// Flight recorder receiving publish / reclaim / batch-apply /
  /// queue-high-water events. Null selects the process-global one.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// Monotonic totals since construction (point-in-time copies).
struct ServingCounters {
  uint64_t queries_served = 0;
  uint64_t micro_batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t updates_applied = 0;
  uint64_t generations_published = 0;
  uint64_t snapshots_reclaimed = 0;
  uint64_t snapshots_retired_pending = 0;
  /// Publish cost in vertices whose label chunk had to be copied —
  /// O(delta since the previous publish) under the persistent chunked
  /// overlay, vs the whole overlay per publish under the retired
  /// map-copy design.
  uint64_t publish_copied_vertices_last = 0;
  uint64_t publish_copied_vertices_total = 0;

  std::string ToString() const;
};

class ServingEngine {
 public:
  /// Takes over `index`'s write path: from here on, all updates must
  /// go through ApplyUpdate(s) and all queries through Submit*.
  /// `index` must outlive the engine. Over a `DynamicDspcIndex`,
  /// queries answer the directed pair s -> t and the result cache keys
  /// ordered pairs. Defined for `DynamicSpcIndex` and
  /// `DynamicDspcIndex`.
  template <class GraphT>
  explicit ServingEngine(DynamicIndex<GraphT>* index,
                         ServingOptions options = {});

  /// Stops (drains, joins workers) if Stop was not called explicitly.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues one query. `s`, `t` must be < NumVertices(). Thread-safe.
  std::future<SpcResult> Submit(VertexId s, VertexId t);

  /// Enqueues a batch; the future completes when every query has been
  /// answered (positionally matching `batch`). Thread-safe.
  std::future<std::vector<SpcResult>> SubmitBatch(const QueryBatch& batch);

  /// Applies the batch *atomically* to the index (coalesced repair,
  /// see DynamicIndex::ApplyBatch) and publishes at most one
  /// snapshot generation for it. On a validation error nothing applies
  /// and nothing publishes; a batch that coalesces to a net no-op also
  /// publishes nothing. Serialized internally; thread-safe. Queries
  /// keep flowing against the previous generation while this runs.
  Status ApplyUpdates(const EdgeUpdateBatch& batch) EXCLUDES(writer_mu_);
  Status ApplyUpdate(const EdgeUpdate& update) EXCLUDES(writer_mu_);

  /// Generation readers are currently being served from.
  uint64_t PublishedGeneration() const {
    return snapshots_.PublishedGeneration();
  }

  VertexId NumVertices() const { return num_vertices_; }

  /// Blocks until every previously submitted query has completed. With
  /// no concurrent submitters/writers this is a quiesce point: answers
  /// from here on reflect the current graph exactly.
  void Drain() EXCLUDES(drain_mu_);

  /// Drains, closes the queue, joins the workers. Submitting after
  /// Stop aborts. Idempotent.
  void Stop();

  /// Point-in-time totals. Lock-free: every field reads an atomic (or
  /// a registry counter, itself sharded atomics), so pollers can call
  /// this at any rate without ever contending with the write path.
  ServingCounters Counters() const;

  /// The sampled-trace sink: slow-query log and sampling totals.
  const obs::TraceCollector& Traces() const { return traces_; }

  /// Write-path traces: one entry per ApplyUpdates batch, batch-id
  /// correlated, with plan/repair/publish/reclaim stage costs.
  const obs::UpdateTraceLog& UpdateTraces() const { return update_traces_; }

  /// The registry this engine's serve.* metrics land in.
  obs::MetricsRegistry& Metrics() const { return *metrics_; }

  /// The currently published snapshot, kept alive for as long as the
  /// returned ref is held (also past the engine) — a consistent
  /// multi-query read (every Query against the ref sees one
  /// generation). A held ref keeps only its own generation retired;
  /// a reader that holds one per generation grows the backlog the
  /// health watchdog's reclaim_backlog rule watches for, which is how
  /// tests inject a reclaim stall.
  std::shared_ptr<const IndexSnapshot> PinSnapshot() const {
    return snapshots_.Acquire();
  }

 private:
  void WorkerLoop();
  void StartWorkers();
  /// `generation` is the initial published generation (the ctor's
  /// init-list value of published_generation_, passed by value so the
  /// gauge wiring never reads the writer_mu_-guarded field unlocked).
  void BindMetrics(uint64_t generation);
  void AttachTrace(ServeRequest* request);
  bool Enqueue(ServeRequest request);
  void FinishRequests(size_t n);
  /// ApplyUpdates' body, once per edge direction.
  template <class Index>
  Status ApplyLocked(Index& index, const EdgeUpdateBatch& batch)
      REQUIRES(writer_mu_);

  // Only the write path touches the index; the read path only ever
  // sees published snapshots.
  std::variant<DynamicSpcIndex*, DynamicDspcIndex*> index_;
  ServingOptions options_;
  VertexId num_vertices_;
  size_t num_workers_;

  SnapshotManager snapshots_;
  RequestQueue queue_;
  ResultCache cache_;
  std::vector<std::thread> workers_;

  // Write path. Counters() no longer takes this: every counter it
  // reports lives in an atomic any thread can read.
  spc::Mutex writer_mu_{spc::LockRank::kServingWriter};
  uint64_t published_generation_ GUARDED_BY(writer_mu_);
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> publishes_{0};

  // Completion tracking for Drain().
  std::atomic<uint64_t> pending_{0};
  spc::Mutex drain_mu_{spc::LockRank::kServingDrain};
  spc::CondVar drain_cv_;

  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> micro_batches_{0};
  std::atomic<bool> stopped_{false};

  // Observability. The per-engine atomics above stay authoritative for
  // Counters() (a registry may be shared across engines); the registry
  // handles below are fed the identical deltas at the identical sites,
  // so an exported snapshot of a per-engine registry always agrees
  // with Counters().
  obs::MetricsRegistry* metrics_;
  obs::Counter* queries_total_;
  obs::Counter* micro_batches_total_;
  obs::Counter* cache_hits_total_;
  obs::Counter* cache_misses_total_;
  obs::Counter* updates_applied_total_;
  obs::Counter* generations_published_total_;
  obs::Counter* traces_sampled_total_;
  obs::Counter* traces_slow_total_;
  obs::Gauge* published_generation_gauge_;
  obs::Histogram* query_latency_us_;
  obs::Histogram* query_latency_cache_hit_us_;
  obs::Histogram* query_latency_merge_us_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* micro_batch_size_;
  obs::Histogram* update_latency_us_;
  obs::Histogram* publish_us_;
  obs::Histogram* reader_pin_us_;
  obs::Counter* label_bytes_merged_total_;
  obs::Histogram* label_bytes_per_query_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* queue_capacity_gauge_;
  obs::FlightRecorder* recorder_;

  obs::TraceSampler sampler_;
  obs::TraceCollector traces_;
  obs::UpdateTraceLog update_traces_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_batch_id_{1};
  // Queue high-water mark last announced to the flight recorder;
  // workers race benignly on it (CAS, at most one event per new mark).
  std::atomic<size_t> reported_high_water_{0};
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_SERVING_ENGINE_H_
