#ifndef PSPC_SRC_OBS_METRICS_H_
#define PSPC_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/percentile.h"
#include "src/common/thread_annotations.h"

/// Process-wide observability: named counters, gauges, and
/// fixed-boundary latency histograms behind a `MetricsRegistry`.
///
/// The design splits cold registration from hot recording. Looking a
/// metric up (`GetCounter` / `GetGauge` / `GetHistogram`) takes the
/// registry mutex once and returns a pointer that stays valid for the
/// registry's lifetime — instrumentation sites resolve their handles
/// at wiring time and never touch the registry again. Recording is
/// lock-free and sharded: each counter/histogram owns a small array of
/// cache-line-aligned shards, a thread picks its shard by a
/// thread-local round-robin index, and a write is one (or a few)
/// relaxed atomic RMWs on a line no other steady-state thread
/// contends. Reads merge the shards, so `Value()` is exact once the
/// writers have quiesced and monotonically fresh while they run
/// (relaxed loads may trail in-flight increments — fine for a metrics
/// poll, and the reason polling can never data-race the hot path).
///
/// Histograms bucket into fixed upper boundaries (power-of-two-ish by
/// default; see `ExponentialBoundaries`) plus an overflow bucket, and
/// track sum/min/max, so a snapshot can interpolate p50/p95/p99
/// through the shared rank convention in common/percentile.h.
///
/// Export: `ToJson()` is the versioned machine-readable snapshot
/// (schema_version + counters/gauges/histograms; serialized with the
/// same json_writer.h the benches use) and `ToPrometheusText()` the
/// text-exposition rendering of the same state.
namespace pspc {
namespace obs {

/// Round-robin shard index of the calling thread. Stable per thread,
/// assigned on first use; every sharded metric folds it modulo its
/// shard count.
inline size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  // relaxed: the counter only hands out distinct indices; no other
  // state is published through it.
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Monotonic counter. Increment is one relaxed fetch_add on the
/// calling thread's shard.
class Counter {
 public:
  static constexpr size_t kShards = 16;  // power of two

  void Increment(uint64_t delta = 1) {
    // relaxed: metrics tolerate reordering; a poll merging the shards
    // may trail in-flight increments (see the class comment).
    shards_[ThreadShardIndex() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      // relaxed: monotonically fresh merge; exact once writers quiesce.
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& Name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  std::array<Shard, kShards> shards_{};
};

/// Point-in-time value. Set/Add are single relaxed atomics — gauges
/// are written from one owner (or rarely) so they are not sharded.
class Gauge {
 public:
  // relaxed: a gauge is a free-standing point-in-time value; no reader
  // infers other state from it.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);  // relaxed: ditto
  }
  int64_t Value() const {
    return value_.load(std::memory_order_relaxed);  // relaxed: ditto
  }

  const std::string& Name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// The exporter's name mapping: `pspc_` prefix, dots to underscores.
/// "serve.queries_total" -> "pspc_serve_queries_total".
std::string PrometheusMetricName(std::string_view dotted);

/// `count` strictly increasing upper bucket boundaries starting at
/// `start` and multiplying by `factor` — the power-of-two-ish ladders
/// the default histograms use.
std::vector<double> ExponentialBoundaries(double start, double factor,
                                          size_t count);

/// Default microsecond-latency ladder: 1us, 2us, 4us, ... ~67s
/// (27 finite buckets + overflow).
std::span<const double> DefaultLatencyBoundariesUs();

/// Merged point-in-time view of a histogram (see
/// `Histogram::Snapshot`). `bucket_counts` has one trailing overflow
/// entry beyond `upper_bounds`.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Interpolated `p`-quantile through the shared nearest-rank
  /// convention (common/percentile.h).
  double Percentile(double p) const {
    return HistogramPercentile(bucket_counts, upper_bounds, p, min, max);
  }
};

/// Fixed-boundary histogram. Record is a branch-free boundary search
/// plus four relaxed atomics on the calling thread's shard.
class Histogram {
 public:
  static constexpr size_t kShards = 16;  // power of two

  void Record(double value);

  /// Merges the shards into one consistent-enough view (see the class
  /// comment on relaxed reads under concurrent writers).
  HistogramSnapshot Snapshot() const;

  uint64_t Count() const { return Snapshot().count; }

  const std::string& Name() const { return name_; }
  std::span<const double> UpperBounds() const { return upper_bounds_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::span<const double> upper_bounds);

  struct alignas(64) Shard {
    // buckets[upper_bounds_.size()] is the overflow bucket.
    // (unique_ptr array: std::atomic is not movable, so vector's
    // growth requirements rule it out.)
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  std::string name_;
  std::vector<double> upper_bounds_;
  std::array<Shard, kShards> shards_;
};

/// Named-metric registry. One process-wide instance (`Global()`)
/// backs the always-on instrumentation; tests construct private
/// registries for exactness assertions. Lookup registers on first use;
/// returned pointers live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumented subsystem defaults
  /// to (never destroyed — instrumented objects may outlive statics).
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Empty `upper_bounds` selects DefaultLatencyBoundariesUs(). A
  /// second lookup of an existing histogram returns it unchanged
  /// (boundaries are fixed at first registration).
  Histogram* GetHistogram(std::string_view name,
                          std::span<const double> upper_bounds = {});

  /// Versioned JSON snapshot:
  ///   {"schema_version":N,
  ///    "counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{count,sum,min,max,mean,p50,p95,p99,
  ///                        buckets:[{le,count},...]},...}}
  /// Metric names are emitted in sorted order, so equal state
  /// serializes byte-identically (golden-testable).
  std::string ToJson() const;

  /// Prometheus text exposition of the same state: names prefixed
  /// `pspc_`, dots rewritten to underscores, histograms rendered as
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
  std::string ToPrometheusText() const;

 private:
  mutable spc::Mutex mu_{spc::LockRank::kMetricsRegistry};
  // std::map: stable iteration order for deterministic export, and
  // node-based so metric pointers never move.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// Records the scope's elapsed wall time, in microseconds, into a
/// histogram on destruction (the metrics twin of common/timer.h's
/// ScopedTimer). A null histogram disables the timer.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram);
  ~ScopedLatencyTimer();

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_METRICS_H_
