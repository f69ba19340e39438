#ifndef PSPC_SRC_SERVE_REQUEST_QUEUE_H_
#define PSPC_SRC_SERVE_REQUEST_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

/// The serving front-end's MPMC request plumbing: completion tickets
/// and a bounded queue workers drain in adaptive micro-batches.
///
/// The queue couples producers (front-end threads submitting queries)
/// to consumers (the worker pool) only — the write path never touches
/// it, so a blocked producer can slow other producers, never a repair,
/// and a repair never slows a worker.
namespace pspc {

/// Completion state shared by the requests of one submitted batch.
/// Workers write disjoint `results` slots; the worker that decrements
/// `remaining` to zero fulfills the promise (the acq_rel decrement
/// orders every slot write before the move).
struct BatchTicket {
  explicit BatchTicket(size_t n) : results(n), remaining(n) {}
  std::vector<SpcResult> results;
  std::atomic<size_t> remaining;
  std::promise<std::vector<SpcResult>> promise;
};

/// Completion state of a single-query submission.
struct SingleTicket {
  std::promise<SpcResult> promise;
};

/// One queued query. Exactly one of `batch` / `single` is set.
struct ServeRequest {
  VertexId s = 0;
  VertexId t = 0;
  uint32_t pos = 0;  // slot in batch->results
  /// Submission timestamp (obs::TraceNowNs) — the queue-wait histogram
  /// measures dequeue time against it for every query.
  int64_t enqueue_ns = 0;
  std::shared_ptr<BatchTicket> batch;
  std::shared_ptr<SingleTicket> single;
  /// Set on the sampled 1-in-N: the worker stamps the remaining stage
  /// timestamps and hands the completed trace to the collector.
  std::shared_ptr<obs::QueryTrace> trace;
};

/// Bounded MPMC queue with batch dequeue. Producers block while full
/// (back-pressure instead of unbounded memory); consumers block while
/// empty and wake on Close.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues one request; blocks while the queue is full. Returns
  /// false (dropping the request) once the queue is closed.
  bool Push(ServeRequest request) EXCLUDES(mu_) {
    spc::MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    items_.push_back(std::move(request));
    NoteDepthLocked();
    lock.Unlock();
    not_empty_.NotifyOne();
    return true;
  }

  /// Bulk enqueue: one lock acquisition for the whole batch (the
  /// submission path of SubmitBatch — per-request locking is measurable
  /// at serving rates). Blocks for space in chunks while the queue is
  /// full. Returns the number actually enqueued: `requests.size()`
  /// normally, less once the queue is closed mid-push.
  size_t PushAll(std::vector<ServeRequest>* requests) EXCLUDES(mu_) {
    size_t pushed = 0;
    bool open = true;
    while (open && pushed < requests->size()) {
      size_t added = 0;
      {
        spc::MutexLock lock(mu_);
        while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
        if (closed_) {
          open = false;
        } else {
          while (pushed < requests->size() && items_.size() < capacity_) {
            items_.push_back(std::move((*requests)[pushed]));
            ++pushed;
            ++added;
          }
          NoteDepthLocked();
        }
      }
      // Notify outside the lock (woken workers would otherwise block
      // right back on it); every worker, since a bulk push usually
      // carries work for all.
      if (added > 0) not_empty_.NotifyAll();
    }
    return pushed;
  }

  /// Appends up to an adaptive number of requests to `out`; blocks
  /// while the queue is empty. The take size splits the backlog evenly
  /// across `num_consumers` (so a shallow queue does not all land on
  /// one worker) and caps it at `max_batch` (so one worker's snapshot
  /// ref never spans an unbounded run of queries). Returns the number
  /// taken; 0 means closed *and* drained.
  size_t PopBatch(std::vector<ServeRequest>* out, size_t max_batch,
                  size_t num_consumers) EXCLUDES(mu_) {
    if (max_batch == 0) max_batch = 1;
    if (num_consumers == 0) num_consumers = 1;
    spc::MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
    if (items_.empty()) return 0;
    const size_t fair =
        (items_.size() + num_consumers - 1) / num_consumers;
    const size_t take = std::min(items_.size(), std::min(max_batch, fair));
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(items_.size()));
    }
    lock.Unlock();
    not_full_.NotifyAll();
    return take;
  }

  /// Wakes every blocked producer (which then fail) and lets consumers
  /// drain the backlog and exit.
  void Close() EXCLUDES(mu_) {
    {
      spc::MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  size_t Size() const EXCLUDES(mu_) {
    spc::MutexLock lock(mu_);
    return items_.size();
  }

  size_t Capacity() const { return capacity_; }

  /// Deepest the backlog has ever been (relaxed; exact once quiesced).
  size_t HighWater() const {
    // relaxed: monotonic watermark, no ordering with queue contents.
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Mirrors the live depth into `gauge` on every push/pop (under the
  /// queue lock the paths already hold; the gauge store itself is one
  /// relaxed atomic). Wire before the first producer/consumer touches
  /// the queue.
  void BindDepthGauge(obs::Gauge* gauge) { depth_gauge_ = gauge; }

 private:
  void NoteDepthLocked() REQUIRES(mu_) {
    const size_t depth = items_.size();
    // relaxed: the watermark is a diagnostic maximum published under
    // mu_; readers only need eventual visibility, not ordering.
    if (depth > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(depth, std::memory_order_relaxed);
    }
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<int64_t>(depth));
    }
  }

  mutable spc::Mutex mu_{spc::LockRank::kRequestQueue};
  spc::CondVar not_empty_;
  spc::CondVar not_full_;
  std::deque<ServeRequest> items_ GUARDED_BY(mu_);
  const size_t capacity_;
  bool closed_ GUARDED_BY(mu_) = false;
  std::atomic<size_t> high_water_{0};
  obs::Gauge* depth_gauge_ = nullptr;  // wired before threads start
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_REQUEST_QUEUE_H_
