#include "src/obs/health.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/json_writer.h"
#include "src/obs/metric_names.h"

namespace pspc {
namespace obs {

namespace {

// Rule thresholds. Tick counts are consecutive Evaluate() calls on
// which the rule's condition held; a reclaim backlog at or below the
// floor is too small to report.
constexpr double kQueueDegradedFill = 0.75;
constexpr double kQueueUnhealthyFill = 0.95;
constexpr uint64_t kQueueUnhealthyTicks = 3;
constexpr int64_t kReclaimBacklogFloor = 4;
constexpr uint64_t kReclaimDegradedTicks = 2;
constexpr uint64_t kReclaimUnhealthyTicks = 4;
constexpr uint64_t kPublishStallDegradedTicks = 3;
constexpr uint64_t kPublishStallUnhealthyTicks = 6;

std::string Percent(double fill) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fill * 100.0);
  return buf;
}

}  // namespace

std::string_view HealthStatusName(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk: return "OK";
    case HealthStatus::kDegraded: return "DEGRADED";
    case HealthStatus::kUnhealthy: return "UNHEALTHY";
  }
  return "UNKNOWN";
}

std::string_view HealthRuleName(HealthRuleId id) {
  switch (id) {
    case HealthRuleId::kNone: return "none";
    case HealthRuleId::kQueueSaturation: return "queue_saturation";
    case HealthRuleId::kReclaimBacklog: return "reclaim_backlog";
    case HealthRuleId::kPublishStall: return "publish_stall";
    case HealthRuleId::kRebuildInProgress: return "rebuild_in_progress";
  }
  return "unknown";
}

std::string HealthReport::ToJson() const {
  benchjson::Object object;
  object.Add("status", std::string(HealthStatusName(status)));
  object.Add("rule", std::string(HealthRuleName(worst_rule)));
  object.Add("reason", reason);
  object.Add("tick", tick);
  benchjson::Array rule_array;
  for (const HealthRuleState& rule : rules) {
    benchjson::Object entry;
    entry.Add("rule", std::string(HealthRuleName(rule.id)));
    entry.Add("status", std::string(HealthStatusName(rule.status)));
    entry.Add("reason", rule.reason);
    entry.Add("firing_ticks", rule.firing_ticks);
    rule_array.Add(entry);
  }
  object.AddRaw("rules", rule_array.Serialize());
  return object.Serialize();
}

HealthWatchdog::HealthWatchdog(const HealthOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &MetricsRegistry::Global()),
      recorder_(options.recorder != nullptr ? options.recorder
                                            : &FlightRecorder::Global()),
      status_gauge_(metrics_->GetGauge(kObsHealthStatus)),
      transitions_counter_(metrics_->GetCounter(kObsHealthTransitionsTotal)) {
  // Locked for the thread-safety analysis, not for contention: the
  // object is not yet shared, but pre-Clang-15 analysis has no
  // constructor exemption for guarded members.
  spc::MutexLock lock(mu_);
  current_.reason = "ok";
}

HealthWatchdog::~HealthWatchdog() { Stop(); }

void HealthWatchdog::Start() {
  if (options_.interval_ms == 0 || thread_.joinable()) return;
  {
    spc::MutexLock lock(thread_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void HealthWatchdog::Stop() {
  {
    spc::MutexLock lock(thread_mu_);
    stop_requested_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void HealthWatchdog::RunLoop() {
  for (;;) {
    {
      spc::MutexLock lock(thread_mu_);
      if (stop_requested_) return;
      cv_.WaitFor(thread_mu_,
                  std::chrono::milliseconds(options_.interval_ms));
      if (stop_requested_) return;
    }
    // Evaluate outside thread_mu_: it takes mu_ and reads the registry,
    // and Stop() must never wait behind a tick.
    Evaluate();
  }
}

HealthReport HealthWatchdog::Evaluate() {
  // Read the registry outside mu_ — GetCounter/GetGauge take the
  // registry's own mutex and the values are racy-by-design snapshots.
  const int64_t queue_depth = metrics_->GetGauge(kServeQueueDepth)->Value();
  const int64_t queue_capacity =
      metrics_->GetGauge(kServeQueueCapacity)->Value();
  const int64_t retired =
      metrics_->GetGauge(kServeSnapshotsRetiredPending)->Value();
  const uint64_t applied_total =
      metrics_->GetCounter(kServeUpdatesAppliedTotal)->Value();
  const uint64_t published_total =
      metrics_->GetCounter(kServeGenerationsPublishedTotal)->Value();
  const int64_t rebuild_in_progress =
      metrics_->GetGauge(kDynamicRebuildInProgress)->Value();

  HealthReport report;
  bool went_unhealthy = false;
  spc::MutexLock lock(mu_);
  ++tick_;
  const HealthStatus prev_status = current_.status;
  report.tick = tick_;

  // -- queue_saturation ----------------------------------------------
  {
    HealthRuleState rule;
    rule.id = HealthRuleId::kQueueSaturation;
    const double fill =
        queue_capacity > 0
            ? static_cast<double>(queue_depth) /
                  static_cast<double>(queue_capacity)
            : 0.0;
    if (fill >= kQueueDegradedFill) {
      ++queue_ticks_;
      const bool hard = fill >= kQueueUnhealthyFill &&
                        queue_ticks_ >= kQueueUnhealthyTicks;
      rule.status = hard ? HealthStatus::kUnhealthy : HealthStatus::kDegraded;
      rule.reason = "request queue at " + std::to_string(queue_depth) + "/" +
                    std::to_string(queue_capacity) + " (" + Percent(fill) +
                    " full, " + std::to_string(queue_ticks_) + " ticks)";
    } else {
      queue_ticks_ = 0;
    }
    rule.firing_ticks = queue_ticks_;
    report.rules.push_back(std::move(rule));
  }

  // -- reclaim_backlog -----------------------------------------------
  {
    HealthRuleState rule;
    rule.id = HealthRuleId::kReclaimBacklog;
    const bool growing = have_prev_ && retired > prev_retired_;
    if (growing && retired > kReclaimBacklogFloor) {
      ++reclaim_ticks_;
      if (reclaim_ticks_ >= kReclaimUnhealthyTicks) {
        rule.status = HealthStatus::kUnhealthy;
      } else if (reclaim_ticks_ >= kReclaimDegradedTicks) {
        rule.status = HealthStatus::kDegraded;
      }
      if (rule.status != HealthStatus::kOk) {
        rule.reason = "retired snapshot backlog growing: " +
                      std::to_string(retired) + " pending after " +
                      std::to_string(reclaim_ticks_) +
                      " consecutive growth ticks (readers holding old "
                      "generations, or a reclaim stall)";
      }
    } else {
      reclaim_ticks_ = 0;
    }
    rule.firing_ticks = reclaim_ticks_;
    report.rules.push_back(std::move(rule));
  }

  // -- publish_stall -------------------------------------------------
  {
    HealthRuleState rule;
    rule.id = HealthRuleId::kPublishStall;
    const bool stalled = have_prev_ && applied_total > prev_applied_total_ &&
                         published_total == prev_published_total_;
    if (stalled) {
      ++stall_ticks_;
      if (stall_ticks_ >= kPublishStallUnhealthyTicks) {
        rule.status = HealthStatus::kUnhealthy;
      } else if (stall_ticks_ >= kPublishStallDegradedTicks) {
        rule.status = HealthStatus::kDegraded;
      }
      if (rule.status != HealthStatus::kOk) {
        rule.reason =
            "updates applied but no generation published for " +
            std::to_string(stall_ticks_) + " ticks (applied=" +
            std::to_string(applied_total) + ", published=" +
            std::to_string(published_total) + ")";
      }
    } else {
      stall_ticks_ = 0;
    }
    rule.firing_ticks = stall_ticks_;
    report.rules.push_back(std::move(rule));
  }

  // -- rebuild_in_progress -------------------------------------------
  {
    HealthRuleState rule;
    rule.id = HealthRuleId::kRebuildInProgress;
    if (rebuild_in_progress != 0) {
      rule.status = HealthStatus::kDegraded;
      rule.reason = "staleness rebuild in progress";
      rule.firing_ticks = 1;
    }
    report.rules.push_back(std::move(rule));
  }

  prev_retired_ = retired;
  prev_applied_total_ = applied_total;
  prev_published_total_ = published_total;
  have_prev_ = true;

  report.status = HealthStatus::kOk;
  report.reason = "ok";
  for (const HealthRuleState& rule : report.rules) {
    if (static_cast<uint32_t>(rule.status) >
        static_cast<uint32_t>(report.status)) {
      report.status = rule.status;
      report.worst_rule = rule.id;
      report.reason = std::string(HealthRuleName(rule.id)) + ": " +
                      rule.reason;
    }
  }

  current_ = report;
  status_gauge_->Set(static_cast<int64_t>(report.status));
  const bool transitioned = report.status != prev_status;
  if (transitioned) {
    // relaxed: tally mirrored into the registry counter; pollers only.
    transitions_.fetch_add(1, std::memory_order_relaxed);
    transitions_counter_->Increment();
    recorder_->Record(FlightEventKind::kHealthTransition,
                      static_cast<uint64_t>(prev_status),
                      static_cast<uint64_t>(report.status),
                      static_cast<uint64_t>(report.worst_rule));
  }
  went_unhealthy = transitioned && report.status == HealthStatus::kUnhealthy;
  if (went_unhealthy) {
    // MakeBundle re-enters mu_ through Current(), so drop it first;
    // `current_` already carries this tick's report.
    lock.Unlock();
    const std::string bundle = MakeBundle(report.reason);
    lock.Lock();
    last_bundle_ = bundle;
    if (!options_.bundle_path.empty()) {
      std::FILE* f = std::fopen(options_.bundle_path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(bundle.data(), 1, bundle.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "health: cannot write bundle to %s\n",
                     options_.bundle_path.c_str());
      }
    }
  }
  return report;
}

HealthReport HealthWatchdog::Current() const {
  spc::MutexLock lock(mu_);
  return current_;
}

std::string HealthWatchdog::LastBundle() const {
  spc::MutexLock lock(mu_);
  return last_bundle_;
}

std::string HealthWatchdog::MakeBundle(const std::string& reason) const {
  benchjson::Object bundle;
  bundle.Add("bundle_version", 1);
  const int64_t unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  bundle.Add("generated_unix_ms", unix_ms);
  bundle.Add("reason", reason);
  bundle.AddRaw("health", Current().ToJson());
  bundle.AddRaw("metrics", metrics_->ToJson());
  bundle.AddRaw("flight_recorder", recorder_->ToJson());
  bundle.AddRaw("slow_traces", options_.traces != nullptr
                                   ? options_.traces->SlowTracesToJson()
                                   : "[]");
  bundle.AddRaw("update_traces", options_.update_traces != nullptr
                                     ? options_.update_traces->ToJson()
                                     : "[]");
  return bundle.Serialize();
}

}  // namespace obs
}  // namespace pspc
