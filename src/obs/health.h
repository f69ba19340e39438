#ifndef PSPC_SRC_OBS_HEALTH_H_
#define PSPC_SRC_OBS_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

/// Health watchdog: a rule engine evaluated over metrics-registry
/// deltas. Every rule reads only registry counters/gauges (never the
/// serving objects directly), so (a) the watchdog composes with any
/// instrumented engine without new plumbing, and (b) tests drive the
/// rules by synthesizing registry states. A periodic thread (or a
/// manual `Evaluate()` when `interval_ms == 0`) ticks the rules; each
/// yields OK / DEGRADED / UNHEALTHY with a human-readable reason, the
/// overall status is the worst rule, and `/healthz` serves it as
/// 200/503 + reason.
///
/// Rules (thresholds are the constants at the top of health.cc):
///   - `queue_saturation`: request-queue fill ratio
///     (serve.queue_depth / serve.queue_capacity) above the degraded
///     bar; persistently above the unhealthy bar for N ticks.
///   - `reclaim_backlog`: serve.snapshots_retired_pending growing
///     across consecutive ticks while above a floor — readers holding
///     refs to ever more generations (or a reclaim bug) keep retired
///     generations alive.
///   - `publish_stall`: serve.updates_applied_total advancing while
///     serve.generations_published_total is flat — updates are being
///     accepted but readers cannot see them.
///   - `rebuild_in_progress`: dynamic.rebuild_in_progress set — the
///     index is inside a staleness rebuild (DEGRADED only; expected,
///     but worth surfacing).
///
/// On any transition to UNHEALTHY the watchdog assembles a diagnostic
/// bundle — health report + full metrics snapshot + flight-recorder
/// ring + slow-query and update-batch traces — keeps it readable via
/// `LastBundle()`, and writes it to `bundle_path` when configured.
namespace pspc {
namespace obs {

enum class HealthStatus : uint32_t { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

std::string_view HealthStatusName(HealthStatus status);

/// Stable rule identifiers (also the `rule_id` payload of
/// kHealthTransition flight events). 3 belonged to a retired rule and
/// stays unused, so recorded payloads keep their meaning.
enum class HealthRuleId : uint32_t {
  kNone = 0,
  kQueueSaturation = 1,
  kReclaimBacklog = 2,
  kPublishStall = 4,
  kRebuildInProgress = 5,
};

std::string_view HealthRuleName(HealthRuleId id);

struct HealthRuleState {
  HealthRuleId id = HealthRuleId::kNone;
  HealthStatus status = HealthStatus::kOk;
  std::string reason;         ///< human-readable, empty when OK
  uint64_t firing_ticks = 0;  ///< consecutive ticks the condition held
};

struct HealthReport {
  HealthStatus status = HealthStatus::kOk;
  HealthRuleId worst_rule = HealthRuleId::kNone;
  std::string reason;  ///< worst rule's reason, or "ok"
  uint64_t tick = 0;   ///< evaluations so far (0 = never evaluated)
  std::vector<HealthRuleState> rules;

  std::string ToJson() const;
};

struct HealthOptions {
  MetricsRegistry* metrics = nullptr;   ///< null selects Global()
  FlightRecorder* recorder = nullptr;   ///< null selects Global()
  const TraceCollector* traces = nullptr;         ///< bundle section
  const UpdateTraceLog* update_traces = nullptr;  ///< bundle section

  /// Watchdog tick period. 0 disables the thread: callers (tests)
  /// drive `Evaluate()` manually.
  uint64_t interval_ms = 100;

  /// Written on each transition to UNHEALTHY; empty keeps the bundle
  /// in memory only (`LastBundle()`).
  std::string bundle_path;
};

class HealthWatchdog {
 public:
  explicit HealthWatchdog(const HealthOptions& options = {});
  ~HealthWatchdog();

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  /// Spawns the watchdog thread (no-op when `interval_ms == 0`).
  void Start() EXCLUDES(thread_mu_);
  void Stop() EXCLUDES(thread_mu_);

  /// One rule-engine tick; also what the thread calls. Serialized
  /// internally, so manual calls compose with the thread.
  HealthReport Evaluate() EXCLUDES(mu_);

  /// Last report (a default OK report before the first tick).
  HealthReport Current() const EXCLUDES(mu_);

  /// Completed status transitions (mirrors obs.health_transitions_total).
  uint64_t Transitions() const {
    // relaxed: monotonic tally mirrored into the registry counter.
    return transitions_.load(std::memory_order_relaxed);
  }

  /// Most recent UNHEALTHY diagnostic bundle; empty if none yet.
  std::string LastBundle() const EXCLUDES(mu_);

  /// Assembles a diagnostic bundle on demand (also used for the
  /// operator-requested dump at process exit).
  std::string MakeBundle(const std::string& reason) const EXCLUDES(mu_);

  const HealthOptions& options() const { return options_; }

 private:
  void RunLoop();

  HealthOptions options_;
  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  Gauge* status_gauge_;
  Counter* transitions_counter_;

  std::atomic<uint64_t> transitions_{0};

  // Guards the report + rule state below.
  mutable spc::Mutex mu_{spc::LockRank::kWatchdog};
  HealthReport current_ GUARDED_BY(mu_);
  std::string last_bundle_ GUARDED_BY(mu_);
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  // Per-rule consecutive-fire counters and previous-tick readings.
  uint64_t queue_ticks_ GUARDED_BY(mu_) = 0;
  uint64_t reclaim_ticks_ GUARDED_BY(mu_) = 0;
  uint64_t stall_ticks_ GUARDED_BY(mu_) = 0;
  int64_t prev_retired_ GUARDED_BY(mu_) = 0;
  uint64_t prev_applied_total_ GUARDED_BY(mu_) = 0;
  uint64_t prev_published_total_ GUARDED_BY(mu_) = 0;
  bool have_prev_ GUARDED_BY(mu_) = false;

  spc::Mutex thread_mu_{spc::LockRank::kWatchdogThread};
  spc::CondVar cv_;
  bool stop_requested_ GUARDED_BY(thread_mu_) = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_HEALTH_H_
