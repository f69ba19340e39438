#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "src/common/json_writer.h"
#include "src/obs/metric_names.h"

namespace pspc {
namespace obs {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Relaxed CAS folds for the double-valued shard aggregates. Contention
// is a same-shard rarity, so the loops almost always succeed first
// try.
// relaxed throughout: shard aggregates are merged by polls that
// tolerate trailing values; no cross-field ordering is implied.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double observed = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(observed, observed + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  // relaxed: shard aggregate, merged by tolerance-to-staleness polls.
  double observed = target->load(std::memory_order_relaxed);
  while (value < observed &&
         !target->compare_exchange_weak(observed, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  // relaxed: shard aggregate, merged by tolerance-to-staleness polls.
  double observed = target->load(std::memory_order_relaxed);
  while (value > observed &&
         !target->compare_exchange_weak(observed, value,
                                        std::memory_order_relaxed)) {
  }
}

// HELP text derived from the dotted name and metric kind — enough for
// a human reading the scrape, and it keeps the HELP/TYPE pairing the
// text format expects without a second per-metric table to drift.
std::string HelpLine(const std::string& prom, const std::string& name,
                     const char* kind) {
  return "# HELP " + prom + " pspc " + kind + " " + name + "\n";
}

std::string FormatNumber(double value) { return benchjson::NumberToJson(value); }

}  // namespace

std::string PrometheusMetricName(std::string_view dotted) {
  std::string out = "pspc_";
  out.reserve(out.size() + dotted.size());
  for (const char c : dotted) out += c == '.' ? '_' : c;
  return out;
}

std::vector<double> ExponentialBoundaries(double start, double factor,
                                          size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::span<const double> DefaultLatencyBoundariesUs() {
  static const std::vector<double> bounds =
      ExponentialBoundaries(1.0, 2.0, 27);
  return bounds;
}

Histogram::Histogram(std::string name, std::span<const double> upper_bounds)
    : name_(std::move(name)),
      upper_bounds_(upper_bounds.begin(), upper_bounds.end()) {
  for (Shard& shard : shards_) {
    shard.buckets =
        std::make_unique<std::atomic<uint64_t>[]>(upper_bounds_.size() + 1);
  }
}

void Histogram::Record(double value) {
  Shard& shard = shards_[ThreadShardIndex() & (kShards - 1)];
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const auto bucket =
      static_cast<size_t>(std::distance(upper_bounds_.begin(), it));
  // relaxed: sharded tally; Snapshot's merge is racy-by-design.
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&shard.sum, value);
  AtomicMin(&shard.min, value);
  AtomicMax(&shard.max, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.upper_bounds = upper_bounds_;
  snapshot.bucket_counts.assign(upper_bounds_.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    // relaxed: merged view may trail in-flight records (class comment).
    for (size_t b = 0; b < snapshot.bucket_counts.size(); ++b) {
      snapshot.bucket_counts[b] +=
          shard.buckets[b].load(std::memory_order_relaxed);
    }
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  for (const uint64_t c : snapshot.bucket_counts) snapshot.count += c;
  snapshot.min = snapshot.count == 0 ? 0.0 : min;
  snapshot.max = snapshot.count == 0 ? 0.0 : max;
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const global = new MetricsRegistry();
  return *global;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  spc::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  spc::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::span<const double> bounds) {
  spc::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = DefaultLatencyBoundariesUs();
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), bounds)))
             .first;
  }
  return it->second.get();
}

std::string MetricsRegistry::ToJson() const {
  spc::MutexLock lock(mu_);
  benchjson::Object root;
  root.Add("schema_version", kMetricsSchemaVersion);

  benchjson::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters.Add(name, counter->Value());
  }
  root.AddRaw("counters", counters.Serialize());

  benchjson::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges.Add(name, gauge->Value());
  }
  root.AddRaw("gauges", gauges.Serialize());

  benchjson::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snapshot = histogram->Snapshot();
    benchjson::Object entry;
    entry.Add("count", snapshot.count);
    entry.Add("sum", snapshot.sum);
    entry.Add("min", snapshot.min);
    entry.Add("max", snapshot.max);
    entry.Add("mean", snapshot.Mean());
    entry.Add("p50", snapshot.Percentile(0.5));
    entry.Add("p95", snapshot.Percentile(0.95));
    entry.Add("p99", snapshot.Percentile(0.99));
    benchjson::Array buckets;
    for (size_t b = 0; b < snapshot.bucket_counts.size(); ++b) {
      benchjson::Object bucket;
      if (b < snapshot.upper_bounds.size()) {
        bucket.Add("le", snapshot.upper_bounds[b]);
      } else {
        bucket.Add("le", "+Inf");
      }
      bucket.Add("count", snapshot.bucket_counts[b]);
      buckets.Add(bucket);
    }
    entry.AddRaw("buckets", buckets.Serialize());
    histograms.AddRaw(name, entry.Serialize());
  }
  root.AddRaw("histograms", histograms.Serialize());
  return root.Serialize();
}

std::string MetricsRegistry::ToPrometheusText() const {
  spc::MutexLock lock(mu_);
  // Append-only (no operator+ temporaries): the export walks every
  // metric, so each line would otherwise allocate a chain of
  // intermediate strings.
  std::string out;
  const auto line = [&out](std::string_view a, std::string_view b,
                           std::string_view c) {
    out += a;
    out += b;
    out += c;
    out += '\n';
  };
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusMetricName(name);
    out += HelpLine(prom, name, "counter");
    line("# TYPE ", prom, " counter");
    line(prom, " ", std::to_string(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusMetricName(name);
    out += HelpLine(prom, name, "gauge");
    line("# TYPE ", prom, " gauge");
    line(prom, " ", std::to_string(gauge->Value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snapshot = histogram->Snapshot();
    const std::string prom = PrometheusMetricName(name);
    out += HelpLine(prom, name, "histogram");
    line("# TYPE ", prom, " histogram");
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snapshot.bucket_counts.size(); ++b) {
      cumulative += snapshot.bucket_counts[b];
      out += prom;
      out += "_bucket{le=\"";
      out += b < snapshot.upper_bounds.size()
                 ? FormatNumber(snapshot.upper_bounds[b])
                 : "+Inf";
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    line(prom, "_sum ", FormatNumber(snapshot.sum));
    line(prom, "_count ", std::to_string(snapshot.count));
  }
  return out;
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(histogram == nullptr ? 0 : NowNs()) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (histogram_ != nullptr) {
    histogram_->Record(static_cast<double>(NowNs() - start_ns_) * 1e-3);
  }
}

}  // namespace obs
}  // namespace pspc
