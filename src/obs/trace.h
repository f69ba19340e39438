#ifndef PSPC_SRC_OBS_TRACE_H_
#define PSPC_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"

/// Sampled per-request tracing for the serving path.
///
/// A `TraceSampler` deterministically picks 1-in-N submissions (the
/// decision sequence is a pure function of N and the seed, so test
/// runs replay exactly). A sampled query carries a `QueryTrace`
/// through the pipeline, collecting the four timestamps that bound its
/// life — enqueue, dequeue (micro-batch pickup), merge done (label
/// merge / cache consult finished), reply (promise fulfilled) — via
/// `TraceSpan` RAII stamps. Completed traces land in a
/// `TraceCollector`, which keeps a bounded ring of the slowest-class
/// offenders: every trace whose end-to-end latency exceeds the
/// configured threshold is retained (up to capacity, newest win) and
/// dumpable as JSON for slow-query forensics.
///
/// Cost model: untraced queries pay one atomic fetch_add in the
/// sampler and nothing else; traced queries pay a handful of clock
/// reads plus one mutex acquisition at completion. With sampling
/// 1-in-N the aggregate overhead vanishes into the metrics noise.
namespace pspc {
namespace obs {

/// Monotonic nanosecond clock shared by every trace stamp.
int64_t TraceNowNs();

/// Deterministic 1-in-N sampler: the k-th `Sample()` call (counting
/// from 0, across all threads) returns true iff `k % n == seed % n`.
/// `n == 0` disables sampling, `n == 1` samples everything.
class TraceSampler {
 public:
  TraceSampler(uint64_t every_n, uint64_t seed)
      : every_n_(every_n), offset_(every_n == 0 ? 0 : seed % every_n) {}

  bool Enabled() const { return every_n_ != 0; }

  bool Sample() {
    if (every_n_ == 0) return false;
    // relaxed: the decision only needs a unique tick, not ordering.
    const uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
    return tick % every_n_ == offset_;
  }

  uint64_t Ticks() const {
    return ticks_.load(std::memory_order_relaxed);  // relaxed: diagnostic
  }

 private:
  const uint64_t every_n_;
  const uint64_t offset_;
  std::atomic<uint64_t> ticks_{0};
};

/// The life of one traced query. Timestamps are TraceNowNs() values;
/// a zero timestamp means the stage was never reached.
struct QueryTrace {
  uint64_t trace_id = 0;
  VertexId s = 0;
  VertexId t = 0;
  uint64_t generation = 0;  ///< snapshot generation that answered it
  bool cache_hit = false;
  int64_t enqueue_ns = 0;
  int64_t dequeue_ns = 0;
  int64_t merge_done_ns = 0;
  int64_t reply_ns = 0;

  double QueueWaitMicros() const {
    return static_cast<double>(dequeue_ns - enqueue_ns) * 1e-3;
  }
  double MergeMicros() const {
    return static_cast<double>(merge_done_ns - dequeue_ns) * 1e-3;
  }
  double TotalMicros() const {
    return static_cast<double>(reply_ns - enqueue_ns) * 1e-3;
  }

  /// One-object JSON rendering (stage timings in microseconds).
  std::string ToJson() const;
};

/// RAII stage stamp: writes TraceNowNs() into the given timestamp
/// field of `trace` on destruction. A null trace is a no-op, so
/// untraced requests can share the scoped code path.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, int64_t QueryTrace::* stamp)
      : trace_(trace), stamp_(stamp) {}
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->*stamp_ = TraceNowNs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  int64_t QueryTrace::* stamp_;
};

/// Bounded sink for completed traces. Thread-safe; completion-path
/// only (the hot path never touches it for untraced queries).
class TraceCollector {
 public:
  /// Keeps up to `capacity` slow traces (end-to-end latency above
  /// `slow_threshold_us`); older slow traces fall off the front.
  TraceCollector(size_t capacity, double slow_threshold_us)
      : capacity_(capacity == 0 ? 1 : capacity),
        slow_threshold_us_(slow_threshold_us) {}

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Returns true iff the trace crossed the slow threshold (and was
  /// retained).
  bool Record(const QueryTrace& trace);

  // relaxed: monotonic tallies read by pollers.
  uint64_t TracesRecorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t SlowTraces() const {
    return slow_.load(std::memory_order_relaxed);  // relaxed: ditto
  }
  double SlowThresholdMicros() const { return slow_threshold_us_; }

  /// Point-in-time copy of the retained slow traces, oldest first.
  std::vector<QueryTrace> SlowTraceLog() const;

  /// JSON array of the retained slow traces.
  std::string SlowTracesToJson() const;

 private:
  const size_t capacity_;
  const double slow_threshold_us_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> slow_{0};
  mutable spc::Mutex mu_{spc::LockRank::kTraceCollector};
  std::deque<QueryTrace> slow_log_ GUARDED_BY(mu_);
};

/// The life of one update batch through the write path, batch-id
/// correlated: plan (validation + coalescing), repair (label surgery),
/// publish (snapshot swap), reclaim (retired-generation free). Stage
/// costs are microseconds; zero means the stage did not run (e.g. a
/// rejected batch never publishes).
struct UpdateTrace {
  uint64_t batch_id = 0;
  uint64_t submitted = 0;  ///< updates handed to ApplyBatch
  uint64_t applied = 0;    ///< net insertions + deletions after coalescing
  uint64_t generation = 0; ///< generation published (0 if none)
  bool ok = false;         ///< batch accepted (validation passed)
  int64_t start_ns = 0;    ///< TraceNowNs() at submission
  double plan_us = 0.0;
  double repair_us = 0.0;
  double publish_us = 0.0;
  double reclaim_us = 0.0;
  double total_us = 0.0;

  /// One-object JSON rendering (stage timings in microseconds).
  std::string ToJson() const;
};

/// Bounded log of recent update-batch traces, newest kept. The write
/// path is single-writer (the engine serializes ApplyUpdates), but the
/// log is read by scrape threads, so it locks — one acquisition per
/// batch is noise next to the repair itself.
class UpdateTraceLog {
 public:
  explicit UpdateTraceLog(size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  UpdateTraceLog(const UpdateTraceLog&) = delete;
  UpdateTraceLog& operator=(const UpdateTraceLog&) = delete;

  void Record(const UpdateTrace& trace);

  uint64_t TracesRecorded() const {
    return recorded_.load(std::memory_order_relaxed);  // relaxed: tally
  }

  /// Point-in-time copy of the retained traces, oldest first.
  std::vector<UpdateTrace> Log() const;

  /// JSON array of the retained traces.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  std::atomic<uint64_t> recorded_{0};
  mutable spc::Mutex mu_{spc::LockRank::kUpdateTraceLog};
  std::deque<UpdateTrace> log_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_TRACE_H_
