#include "src/serve/serving_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/obs/metric_names.h"

namespace pspc {
namespace {

// Bounded request queue; full = producer back-pressure.
constexpr size_t kQueueCapacity = 1 << 16;
// Result-cache shards (a power of two).
constexpr size_t kCacheShards = 16;
// Recent update-batch traces retained for `/tracez`.
constexpr size_t kUpdateTraceCapacity = 64;

}  // namespace

std::string ServingCounters::ToString() const {
  std::ostringstream oss;
  oss << "queries: " << queries_served << " in " << micro_batches
      << " micro-batches\n"
      << "cache:   " << cache_hits << " hits / " << cache_misses
      << " misses\n"
      << "writes:  " << updates_applied << " updates, "
      << generations_published << " generations published\n"
      << "reclaim: " << snapshots_reclaimed << " snapshots reclaimed, "
      << snapshots_retired_pending << " retired pending\n"
      << "publish: " << publish_copied_vertices_total
      << " label chunks copied total, " << publish_copied_vertices_last
      << " on the last publish";
  return oss.str();
}

template <class GraphT>
ServingEngine::ServingEngine(DynamicIndex<GraphT>* index,
                             ServingOptions options)
    : index_(index),
      options_(options),
      num_vertices_(index->NumVertices()),
      num_workers_(options.num_workers > 0
                       ? static_cast<size_t>(options.num_workers)
                       : static_cast<size_t>(MaxThreads())),
      snapshots_(IndexSnapshot::Capture(*index), options.metrics,
                 options.flight_recorder),
      queue_(kQueueCapacity),
      // Ordered-pair keys when directed: SPC(s -> t) must never be
      // answered from a cached SPC(t -> s).
      cache_(kCacheShards, options.cache_capacity_per_shard,
             /*symmetric=*/!index->Directed()),
      published_generation_(index->Generation()),
      sampler_(options.trace_sample_every_n, options.trace_seed),
      traces_(options.slow_trace_capacity, options.slow_trace_us),
      update_traces_(kUpdateTraceCapacity) {
  BindMetrics(index->Generation());
  StartWorkers();
}

template ServingEngine::ServingEngine(DynamicSpcIndex* index,
                                      ServingOptions options);
template ServingEngine::ServingEngine(DynamicDspcIndex* index,
                                      ServingOptions options);

void ServingEngine::BindMetrics(uint64_t generation) {
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricsRegistry::Global();
  queries_total_ = metrics_->GetCounter(obs::kServeQueriesTotal);
  micro_batches_total_ = metrics_->GetCounter(obs::kServeMicroBatchesTotal);
  cache_hits_total_ = metrics_->GetCounter(obs::kServeCacheHitsTotal);
  cache_misses_total_ = metrics_->GetCounter(obs::kServeCacheMissesTotal);
  updates_applied_total_ =
      metrics_->GetCounter(obs::kServeUpdatesAppliedTotal);
  generations_published_total_ =
      metrics_->GetCounter(obs::kServeGenerationsPublishedTotal);
  traces_sampled_total_ = metrics_->GetCounter(obs::kServeTracesSampledTotal);
  traces_slow_total_ = metrics_->GetCounter(obs::kServeTracesSlowTotal);
  published_generation_gauge_ =
      metrics_->GetGauge(obs::kServePublishedGeneration);
  query_latency_us_ = metrics_->GetHistogram(obs::kServeQueryLatencyUs);
  query_latency_cache_hit_us_ =
      metrics_->GetHistogram(obs::kServeQueryLatencyCacheHitUs);
  query_latency_merge_us_ =
      metrics_->GetHistogram(obs::kServeQueryLatencyMergeUs);
  queue_wait_us_ = metrics_->GetHistogram(obs::kServeQueueWaitUs);
  micro_batch_size_ = metrics_->GetHistogram(obs::kServeMicroBatchSize);
  update_latency_us_ = metrics_->GetHistogram(obs::kServeUpdateLatencyUs);
  publish_us_ = metrics_->GetHistogram(obs::kServePublishUs);
  reader_pin_us_ = metrics_->GetHistogram(obs::kServeReaderPinUs);
  label_bytes_merged_total_ =
      metrics_->GetCounter(obs::kServeLabelBytesMergedTotal);
  label_bytes_per_query_ =
      metrics_->GetHistogram(obs::kServeLabelBytesPerQuery);
  published_generation_gauge_->Set(static_cast<int64_t>(generation));
  recorder_ = options_.flight_recorder != nullptr
                  ? options_.flight_recorder
                  : &obs::FlightRecorder::Global();
  queue_depth_gauge_ = metrics_->GetGauge(obs::kServeQueueDepth);
  queue_capacity_gauge_ = metrics_->GetGauge(obs::kServeQueueCapacity);
  queue_capacity_gauge_->Set(static_cast<int64_t>(queue_.Capacity()));
  // Wired before StartWorkers spawns any consumer, so the pointer is
  // published to the worker threads by thread creation.
  queue_.BindDepthGauge(queue_depth_gauge_);
}

void ServingEngine::StartWorkers() {
  if (num_workers_ == 0) num_workers_ = 1;
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() { Stop(); }

bool ServingEngine::Enqueue(ServeRequest request) {
  // relaxed: the increment only has to precede the request becoming
  // visible to workers, which the queue's lock provides; the drain
  // handshake is the acq_rel fetch_sub in FinishRequests.
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.Push(std::move(request))) {
    FinishRequests(1);
    return false;
  }
  return true;
}

void ServingEngine::FinishRequests(size_t n) {
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    spc::MutexLock lock(drain_mu_);
    drain_cv_.NotifyAll();
  }
}

void ServingEngine::AttachTrace(ServeRequest* request) {
  auto trace = std::make_shared<obs::QueryTrace>();
  // relaxed: unique-id draw; only atomicity matters.
  trace->trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  trace->s = request->s;
  trace->t = request->t;
  trace->enqueue_ns = request->enqueue_ns;
  request->trace = std::move(trace);
  traces_sampled_total_->Increment();
}

std::future<SpcResult> ServingEngine::Submit(VertexId s, VertexId t) {
  PSPC_CHECK_MSG(s < num_vertices_ && t < num_vertices_,
                 "query (" << s << "," << t << ") out of range");
  auto ticket = std::make_shared<SingleTicket>();
  std::future<SpcResult> future = ticket->promise.get_future();
  ServeRequest request;
  request.s = s;
  request.t = t;
  request.enqueue_ns = obs::TraceNowNs();
  request.single = std::move(ticket);
  if (sampler_.Sample()) AttachTrace(&request);
  PSPC_CHECK_MSG(Enqueue(std::move(request)), "Submit after Stop");
  return future;
}

std::future<std::vector<SpcResult>> ServingEngine::SubmitBatch(
    const QueryBatch& batch) {
  auto ticket = std::make_shared<BatchTicket>(batch.size());
  std::future<std::vector<SpcResult>> future = ticket->promise.get_future();
  if (batch.empty()) {
    ticket->promise.set_value({});
    return future;
  }
  std::vector<ServeRequest> requests;
  requests.reserve(batch.size());
  // One clock read for the whole submission: the batch enqueues as a
  // unit, so its requests share the instant.
  const int64_t enqueue_ns = obs::TraceNowNs();
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto [s, t] = batch[i];
    PSPC_CHECK_MSG(s < num_vertices_ && t < num_vertices_,
                   "query (" << s << "," << t << ") out of range");
    ServeRequest request;
    request.s = s;
    request.t = t;
    request.pos = static_cast<uint32_t>(i);
    request.enqueue_ns = enqueue_ns;
    request.batch = ticket;
    if (sampler_.Sample()) AttachTrace(&request);
    requests.push_back(std::move(request));
  }
  // relaxed: as in Enqueue — queue lock publishes, FinishRequests'
  // acq_rel decrement is the drain handshake.
  pending_.fetch_add(requests.size(), std::memory_order_relaxed);
  const size_t pushed = queue_.PushAll(&requests);
  if (pushed < requests.size()) {
    FinishRequests(requests.size() - pushed);
    PSPC_CHECK_MSG(false, "SubmitBatch after Stop");
  }
  return future;
}

Status ServingEngine::ApplyUpdates(const EdgeUpdateBatch& batch) {
  spc::MutexLock lock(writer_mu_);
  if (auto* const* directed = std::get_if<DynamicDspcIndex*>(&index_)) {
    return ApplyLocked(**directed, batch);
  }
  return ApplyLocked(*std::get<DynamicSpcIndex*>(index_), batch);
}

template <class Index>
Status ServingEngine::ApplyLocked(Index& index,
                                  const EdgeUpdateBatch& batch) {
  const DynamicStats& stats = index.Stats();
  const uint64_t applied_before =
      stats.insertions_applied + stats.deletions_applied;
  obs::UpdateTrace update_trace;
  // relaxed: unique-id draw; only atomicity matters.
  update_trace.batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  update_trace.submitted = batch.Size();
  const int64_t apply_start_ns = obs::TraceNowNs();
  update_trace.start_ns = apply_start_ns;
  const Status status = index.ApplyBatch(batch);
  update_latency_us_->Record(
      static_cast<double>(obs::TraceNowNs() - apply_start_ns) * 1e-3);
  const uint64_t applied =
      stats.insertions_applied + stats.deletions_applied - applied_before;
  // relaxed: Counters() tally; writer_mu_ serializes writers and
  // pollers tolerate trailing reads.
  updates_applied_.fetch_add(applied, std::memory_order_relaxed);
  updates_applied_total_->Increment(applied);
  update_trace.ok = status.ok();
  update_trace.applied = applied;
  if (status.ok()) {
    // The index stamps per-batch plan/repair wall costs into its stats
    // at the ApplyBatch tail; same thread, same writer_mu_ scope.
    update_trace.plan_us = stats.last_plan_us;
    update_trace.repair_us = stats.last_repair_us;
  }
  // ApplyBatch is atomic and bumps the generation once per batch, so
  // this publishes exactly one snapshot for a batch that changed
  // anything and none for a rejected or fully coalesced one.
  const uint64_t generation = index.Generation();
  if (generation != published_generation_) {
    const int64_t publish_start_ns = obs::TraceNowNs();
    snapshots_.Publish(IndexSnapshot::Capture(index));
    const double publish_micros =
        static_cast<double>(obs::TraceNowNs() - publish_start_ns) * 1e-3;
    publish_us_->Record(publish_micros);
    update_trace.reclaim_us = snapshots_.LastReclaimMicros();
    update_trace.publish_us = publish_micros - update_trace.reclaim_us;
    update_trace.generation = generation;
    published_generation_ = generation;
    // relaxed: Counters() tally; publication itself is ordered by the
    // snapshot manager's release store.
    publishes_.fetch_add(1, std::memory_order_relaxed);
    generations_published_total_->Increment();
    published_generation_gauge_->Set(static_cast<int64_t>(generation));
  }
  update_trace.total_us =
      static_cast<double>(obs::TraceNowNs() - apply_start_ns) * 1e-3;
  update_traces_.Record(update_trace);
  recorder_->Record(obs::FlightEventKind::kBatchApply,
                    update_trace.batch_id, update_trace.submitted, applied,
                    static_cast<uint64_t>(update_trace.total_us));
  return status;
}

Status ServingEngine::ApplyUpdate(const EdgeUpdate& update) {
  EdgeUpdateBatch batch;
  batch.Add(update);
  return ApplyUpdates(batch);
}

void ServingEngine::Drain() {
  spc::MutexLock lock(drain_mu_);
  // acquire: pairs with the acq_rel fetch_sub in FinishRequests so a
  // drained caller observes every completed request's side effects.
  while (pending_.load(std::memory_order_acquire) != 0) {
    drain_cv_.Wait(drain_mu_);
  }
}

void ServingEngine::Stop() {
  if (stopped_.exchange(true)) return;
  Drain();
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

ServingCounters ServingEngine::Counters() const {
  ServingCounters counters;
  // relaxed throughout: point-in-time statistics snapshot; fields are
  // independent tallies, no cross-field consistency is promised.
  counters.queries_served = queries_served_.load(std::memory_order_relaxed);
  counters.micro_batches = micro_batches_.load(std::memory_order_relaxed);
  counters.cache_hits = cache_.Hits();
  counters.cache_misses = cache_.Misses();
  counters.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  counters.generations_published =
      publishes_.load(std::memory_order_relaxed);  // relaxed: as above.
  counters.snapshots_reclaimed = snapshots_.ReclaimedCount();
  counters.snapshots_retired_pending = snapshots_.RetiredCount();
  counters.publish_copied_vertices_last =
      snapshots_.LastPublishCopiedVertices();
  counters.publish_copied_vertices_total =
      snapshots_.TotalPublishCopiedVertices();
  return counters;
}

void ServingEngine::WorkerLoop() {
  std::vector<ServeRequest> local;
  local.reserve(options_.max_batch);
  for (;;) {
    local.clear();
    const size_t taken =
        queue_.PopBatch(&local, options_.max_batch, num_workers_);
    if (taken == 0) return;  // closed and drained

    // Announce new queue high-water marks to the flight recorder in
    // capacity/8 steps (one relaxed load per micro-batch otherwise).
    {
      const size_t high_water = queue_.HighWater();
      // relaxed: dedup marker for flight events; the CAS only elects
      // one reporter per new watermark, no payload rides on it.
      size_t reported = reported_high_water_.load(std::memory_order_relaxed);
      const size_t step = std::max<size_t>(1, queue_.Capacity() / 8);
      if (high_water >= reported + step &&
          reported_high_water_.compare_exchange_strong(
              reported, high_water, std::memory_order_relaxed)) {
        recorder_->Record(obs::FlightEventKind::kQueueHighWater, high_water,
                          queue_.Capacity());
      }
    }

    // One clock read covers the whole dequeue: the micro-batch left
    // the queue as a unit, so its queue waits share the instant.
    const int64_t dequeue_ns = obs::TraceNowNs();

    // One snapshot ref covers the whole micro-batch: the snapshot (and
    // its generation, for cache tagging) is fixed across it.
    const std::shared_ptr<const IndexSnapshot> snapshot =
        snapshots_.Acquire();
    const uint64_t generation = snapshot->Generation();
    uint64_t hits = 0;
    uint64_t merged_bytes_batch = 0;
    for (ServeRequest& request : local) {
      queue_wait_us_->Record(
          static_cast<double>(dequeue_ns - request.enqueue_ns) * 1e-3);
      SpcResult result;
      bool cache_hit;
      {
        // Stamps merge_done_ns on a traced request (cache consult /
        // label merge finished); no-op otherwise.
        obs::TraceSpan merge_span(request.trace.get(),
                                  &obs::QueryTrace::merge_done_ns);
        cache_hit = cache_.Lookup(generation, request.s, request.t, &result);
        if (!cache_hit) {
          size_t merged_bytes = 0;
          result = snapshot->QueryMeasured(request.s, request.t, &merged_bytes);
          cache_.Insert(generation, request.s, request.t, result);
          label_bytes_per_query_->Record(static_cast<double>(merged_bytes));
          merged_bytes_batch += merged_bytes;
        }
      }
      hits += cache_hit ? 1 : 0;
      if (request.single != nullptr) {
        request.single->promise.set_value(result);
      } else {
        BatchTicket& ticket = *request.batch;
        ticket.results[request.pos] = result;
        if (ticket.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          ticket.promise.set_value(std::move(ticket.results));
        }
      }
      const int64_t reply_ns = obs::TraceNowNs();
      const double total_us =
          static_cast<double>(reply_ns - request.enqueue_ns) * 1e-3;
      query_latency_us_->Record(total_us);
      (cache_hit ? query_latency_cache_hit_us_ : query_latency_merge_us_)
          ->Record(total_us);
      if (request.trace != nullptr) {
        obs::QueryTrace& trace = *request.trace;
        trace.generation = generation;
        trace.cache_hit = cache_hit;
        trace.dequeue_ns = dequeue_ns;
        trace.reply_ns = reply_ns;
        if (traces_.Record(trace)) traces_slow_total_->Increment();
      }
    }
    // How long this micro-batch held its snapshot ref.
    reader_pin_us_->Record(
        static_cast<double>(obs::TraceNowNs() - dequeue_ns) * 1e-3);
    // relaxed: Counters() tallies; exactness is only promised once
    // quiesced (Drain's acq_rel handshake).
    queries_served_.fetch_add(taken, std::memory_order_relaxed);
    micro_batches_.fetch_add(1, std::memory_order_relaxed);
    queries_total_->Increment(taken);
    micro_batches_total_->Increment();
    cache_hits_total_->Increment(hits);
    cache_misses_total_->Increment(taken - hits);
    label_bytes_merged_total_->Increment(merged_bytes_batch);
    micro_batch_size_->Record(static_cast<double>(taken));
    FinishRequests(taken);
  }
}

}  // namespace pspc
