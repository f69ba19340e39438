// Ops-plane units: the flight recorder's seqlock ring against an
// unbounded oracle (wraparound keeps exactly the newest events, in
// order), the health watchdog's rule engine driven by synthetic
// registry states (fire, escalate, recover), the Prometheus
// text-exposition validator, and the introspection server's routing
// goldens via Handle() — no sockets here; the live-HTTP and
// fault-injection coverage lives in serving_ops_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/obs/trace.h"
#include "tools/prom_validate.h"

namespace pspc {
namespace obs {
namespace {

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).Capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).Capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).Capacity(), 16u);
  EXPECT_EQ(FlightRecorder(100).Capacity(), 128u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestEventsAgainstOracle) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.Capacity(), 8u);

  // Oracle: an unbounded log of everything emitted. The ring must hold
  // exactly the newest `capacity` entries of it, oldest first.
  struct OracleEvent {
    FlightEventKind kind;
    uint64_t a0, a1;
  };
  std::vector<OracleEvent> oracle;
  const FlightEventKind kinds[] = {
      FlightEventKind::kPublish, FlightEventKind::kReclaim,
      FlightEventKind::kBatchApply, FlightEventKind::kQueueHighWater};
  for (uint64_t i = 0; i < 100; ++i) {
    const FlightEventKind kind = kinds[i % 4];
    recorder.Record(kind, i, i * 7);
    oracle.push_back({kind, i, i * 7});
  }

  EXPECT_EQ(recorder.EventsRecorded(), 100u);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t seq = 100 - 8 + i;  // newest 8, oldest first
    EXPECT_EQ(events[i].seq, seq);
    EXPECT_EQ(events[i].kind, oracle[seq].kind);
    EXPECT_EQ(events[i].args[0], oracle[seq].a0);
    EXPECT_EQ(events[i].args[1], oracle[seq].a1);
    EXPECT_GT(events[i].ns, 0);
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
}

TEST(FlightRecorderTest, ReaderBelowCapacitySeesEverything) {
  FlightRecorder recorder(64);
  recorder.Record(FlightEventKind::kRebuildStart, 1, 2);
  recorder.Record(FlightEventKind::kRebuildEnd, 3, 4, 5);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kRebuildStart);
  EXPECT_EQ(events[1].kind, FlightEventKind::kRebuildEnd);
  EXPECT_EQ(events[1].args[2], 5u);
}

// Writers on several threads plus a reader polling mid-write: the
// seqlock must never surface a torn slot (every event the reader sees
// is internally consistent with the writer that committed it), and the
// final drain must reproduce the newest-capacity window exactly. The
// TSan job runs this file.
TEST(FlightRecorderTest, ConcurrentWritersAndReaderStayConsistent) {
  FlightRecorder recorder(32);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // relaxed: stop/progress flag only; thread join is the sync point.
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEvent& event : recorder.Events()) {
        // Writers encode thread (args[0]) and iteration (args[1]);
        // a torn slot would break the args[1] == 3 * args[2] invariant.
        EXPECT_EQ(event.kind, FlightEventKind::kBatchApply);
        EXPECT_LT(event.args[0], static_cast<uint64_t>(kThreads));
        EXPECT_EQ(event.args[1], 3 * event.args[2]);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(FlightEventKind::kBatchApply,
                        static_cast<uint64_t>(t), 3 * i, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(recorder.EventsRecorded(), kThreads * kPerThread);
  const std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), recorder.Capacity());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  // Quiesced: the ring holds exactly the final capacity-sized window.
  EXPECT_EQ(events.front().seq,
            kThreads * kPerThread - recorder.Capacity());
  EXPECT_EQ(events.back().seq, kThreads * kPerThread - 1);
}

TEST(FlightRecorderTest, JsonCarriesNamedKindsAndArgs) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kQueueHighWater, 2, 9);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("queue_high_water"), std::string::npos);
}

// ------------------------------------------------------ health watchdog

// All watchdog tests run with interval_ms = 0 (no thread) and drive
// Evaluate() manually against a private registry, so every rule input
// is a synthetic state the test fully controls.
HealthOptions ManualOptions(MetricsRegistry* registry,
                            FlightRecorder* recorder) {
  HealthOptions options;
  options.metrics = registry;
  options.recorder = recorder;
  options.interval_ms = 0;
  return options;
}

TEST(HealthWatchdogTest, AllQuietReportsOk) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));

  const HealthReport report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kOk);
  EXPECT_EQ(report.worst_rule, HealthRuleId::kNone);
  EXPECT_EQ(report.reason, "ok");
  EXPECT_EQ(report.tick, 1u);
  EXPECT_EQ(report.rules.size(), 4u);
  EXPECT_EQ(watchdog.Transitions(), 0u);
  EXPECT_EQ(registry.GetGauge(kObsHealthStatus)->Value(), 0);
}

TEST(HealthWatchdogTest, QueueSaturationEscalatesThenRecovers) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));
  Gauge* depth = registry.GetGauge(kServeQueueDepth);
  Gauge* capacity = registry.GetGauge(kServeQueueCapacity);
  capacity->Set(100);

  // Above the degraded bar (0.75) but below unhealthy (0.95).
  depth->Set(80);
  HealthReport report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
  EXPECT_EQ(report.worst_rule, HealthRuleId::kQueueSaturation);
  EXPECT_NE(report.reason.find("queue_saturation"), std::string::npos);

  // Above the unhealthy bar, but only persistence (3 ticks) makes it
  // UNHEALTHY.
  depth->Set(96);
  EXPECT_EQ(watchdog.Evaluate().status, HealthStatus::kDegraded);
  report = watchdog.Evaluate();  // queue_ticks_ reaches 3
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy);
  EXPECT_EQ(report.worst_rule, HealthRuleId::kQueueSaturation);
  EXPECT_EQ(registry.GetGauge(kObsHealthStatus)->Value(), 2);

  // Recovery resets the consecutive-tick counter.
  depth->Set(0);
  report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kOk);
  EXPECT_EQ(report.rules[0].firing_ticks, 0u);
  // OK -> DEGRADED -> UNHEALTHY -> OK: three transitions, mirrored in
  // the registry counter and announced to the flight recorder.
  EXPECT_EQ(watchdog.Transitions(), 3u);
  EXPECT_EQ(registry.GetCounter(kObsHealthTransitionsTotal)->Value(), 3u);
  size_t transitions_seen = 0;
  for (const FlightEvent& event : recorder.Events()) {
    if (event.kind == FlightEventKind::kHealthTransition) {
      ++transitions_seen;
    }
  }
  EXPECT_EQ(transitions_seen, 3u);
}

TEST(HealthWatchdogTest, ReclaimBacklogNeedsGrowthAboveFloor) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));
  Gauge* retired = registry.GetGauge(kServeSnapshotsRetiredPending);

  // Growth below the floor (4) never fires.
  retired->Set(1);
  watchdog.Evaluate();
  retired->Set(2);
  EXPECT_EQ(watchdog.Evaluate().status, HealthStatus::kOk);

  // Sustained growth above the floor: DEGRADED at 2 consecutive growth
  // ticks, UNHEALTHY at 4.
  retired->Set(5);
  EXPECT_EQ(watchdog.Evaluate().status, HealthStatus::kOk);
  retired->Set(6);
  HealthReport report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
  EXPECT_EQ(report.worst_rule, HealthRuleId::kReclaimBacklog);
  retired->Set(7);
  watchdog.Evaluate();
  retired->Set(8);
  report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy);
  EXPECT_NE(report.reason.find("reclaim_backlog"), std::string::npos);

  // The UNHEALTHY transition produced a diagnostic bundle.
  const std::string bundle = watchdog.LastBundle();
  EXPECT_NE(bundle.find("\"bundle_version\":1"), std::string::npos);
  EXPECT_NE(bundle.find("reclaim_backlog"), std::string::npos);
  EXPECT_NE(bundle.find("\"flight_recorder\""), std::string::npos);

  // A flat backlog (reclaim caught up or refs released) recovers.
  report = watchdog.Evaluate();
  EXPECT_EQ(report.status, HealthStatus::kOk);
  EXPECT_EQ(report.rules[1].firing_ticks, 0u);
}

TEST(HealthWatchdogTest, PublishStallFiresWhenUpdatesOutrunPublishes) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));
  Counter* applied = registry.GetCounter(kServeUpdatesAppliedTotal);
  Counter* published = registry.GetCounter(kServeGenerationsPublishedTotal);

  watchdog.Evaluate();  // baseline
  HealthReport report;
  for (int tick = 1; tick <= 6; ++tick) {
    applied->Increment();  // accepted, but nothing publishes
    report = watchdog.Evaluate();
    if (tick < 3) {
      EXPECT_EQ(report.status, HealthStatus::kOk) << "tick " << tick;
    } else if (tick < 6) {
      EXPECT_EQ(report.status, HealthStatus::kDegraded) << "tick " << tick;
      EXPECT_EQ(report.worst_rule, HealthRuleId::kPublishStall);
    }
  }
  EXPECT_EQ(report.status, HealthStatus::kUnhealthy);
  EXPECT_NE(report.reason.find("publish_stall"), std::string::npos);

  // A publish breaking through clears the stall immediately.
  applied->Increment();
  published->Increment();
  EXPECT_EQ(watchdog.Evaluate().status, HealthStatus::kOk);
}

TEST(HealthWatchdogTest, RebuildInProgressIsDegradedOnly) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));
  Gauge* rebuilding = registry.GetGauge(kDynamicRebuildInProgress);

  rebuilding->Set(1);
  for (int tick = 0; tick < 10; ++tick) {
    const HealthReport report = watchdog.Evaluate();
    EXPECT_EQ(report.status, HealthStatus::kDegraded);
    EXPECT_EQ(report.worst_rule, HealthRuleId::kRebuildInProgress);
  }
  rebuilding->Set(0);
  EXPECT_EQ(watchdog.Evaluate().status, HealthStatus::kOk);
}

TEST(HealthWatchdogTest, UnhealthyTransitionWritesBundleFile) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthOptions options = ManualOptions(&registry, &recorder);
  options.bundle_path = ::testing::TempDir() + "/pspc_bundle_test.json";
  HealthWatchdog watchdog(options);

  Gauge* depth = registry.GetGauge(kServeQueueDepth);
  registry.GetGauge(kServeQueueCapacity)->Set(10);
  depth->Set(10);  // 100% full
  for (int tick = 0; tick < 3; ++tick) watchdog.Evaluate();
  ASSERT_EQ(watchdog.Current().status, HealthStatus::kUnhealthy);

  std::ifstream in(options.bundle_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bundle = buffer.str();
  EXPECT_NE(bundle.find("\"bundle_version\":1"), std::string::npos);
  EXPECT_NE(bundle.find("queue_saturation"), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(bundle, watchdog.LastBundle() + "\n");
  std::remove(options.bundle_path.c_str());
}

TEST(HealthWatchdogTest, ReportJsonNamesEveryRule) {
  MetricsRegistry registry;
  FlightRecorder recorder(16);
  HealthWatchdog watchdog(ManualOptions(&registry, &recorder));
  const std::string json = watchdog.Evaluate().ToJson();
  for (const char* rule :
       {"queue_saturation", "reclaim_backlog", "publish_stall",
        "rebuild_in_progress"}) {
    EXPECT_NE(json.find(rule), std::string::npos) << rule;
  }
  EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);
}

// ------------------------------------------------- Prometheus validator

TEST(PromValidateTest, RegistryExportPassesWithCatalogEnforced) {
  // Populate one metric of each kind using real catalog names, render,
  // validate with the catalog check on — the round trip the live
  // /metrics CI scrape exercises.
  MetricsRegistry registry;
  registry.GetCounter(kServeQueriesTotal)->Increment(5);
  registry.GetGauge(kServeQueueDepth)->Set(3);
  registry.GetHistogram(kServeQueryLatencyUs)->Record(12.0);
  const PromValidationResult result =
      ValidatePrometheusText(registry.ToPrometheusText(),
                             /*require_catalog=*/true);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.families, 3u);
}

TEST(PromValidateTest, CatalogRejectsForeignFamily) {
  const std::string text =
      "# HELP pspc_not_in_catalog whatever\n"
      "# TYPE pspc_not_in_catalog counter\n"
      "pspc_not_in_catalog 1\n";
  EXPECT_TRUE(ValidatePrometheusText(text, false).ok);
  const PromValidationResult result = ValidatePrometheusText(text, true);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("not in the metric catalog"),
            std::string::npos);
}

TEST(PromValidateTest, RejectsStructuralViolations) {
  // HELP without TYPE.
  EXPECT_FALSE(
      ValidatePrometheusText("# HELP pspc_x x\npspc_x 1\n", false).ok);
  // Sample before any declaration.
  EXPECT_FALSE(ValidatePrometheusText("pspc_x 1\n", false).ok);
  // Non-numeric sample value.
  EXPECT_FALSE(ValidatePrometheusText("# HELP pspc_x x\n"
                                      "# TYPE pspc_x gauge\n"
                                      "pspc_x banana\n",
                                      false)
                   .ok);
  // Negative counter.
  EXPECT_FALSE(ValidatePrometheusText("# HELP pspc_x x\n"
                                      "# TYPE pspc_x counter\n"
                                      "pspc_x -1\n",
                                      false)
                   .ok);
  // Duplicate family.
  EXPECT_FALSE(ValidatePrometheusText("# HELP pspc_x x\n"
                                      "# TYPE pspc_x gauge\npspc_x 1\n"
                                      "# HELP pspc_x x\n"
                                      "# TYPE pspc_x gauge\npspc_x 2\n",
                                      false)
                   .ok);
  // Empty exposition.
  EXPECT_FALSE(ValidatePrometheusText("", false).ok);
}

TEST(PromValidateTest, EnforcesHistogramCompleteness) {
  const std::string head =
      "# HELP pspc_h h\n"
      "# TYPE pspc_h histogram\n";
  // Missing +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText(head +
                                          "pspc_h_bucket{le=\"1\"} 1\n"
                                          "pspc_h_sum 1\npspc_h_count 1\n",
                                      false)
                   .ok);
  // Cumulative counts decreasing.
  EXPECT_FALSE(ValidatePrometheusText(head +
                                          "pspc_h_bucket{le=\"1\"} 2\n"
                                          "pspc_h_bucket{le=\"2\"} 1\n"
                                          "pspc_h_bucket{le=\"+Inf\"} 2\n"
                                          "pspc_h_sum 1\npspc_h_count 2\n",
                                      false)
                   .ok);
  // +Inf disagrees with _count.
  EXPECT_FALSE(ValidatePrometheusText(head +
                                          "pspc_h_bucket{le=\"+Inf\"} 3\n"
                                          "pspc_h_sum 1\npspc_h_count 2\n",
                                      false)
                   .ok);
  // Complete histogram passes.
  const PromValidationResult ok =
      ValidatePrometheusText(head +
                                 "pspc_h_bucket{le=\"1\"} 1\n"
                                 "pspc_h_bucket{le=\"+Inf\"} 2\n"
                                 "pspc_h_sum 3.5\npspc_h_count 2\n",
                             false);
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(PromValidateTest, NameMappingPrefixesAndRewritesDots) {
  EXPECT_EQ(PrometheusMetricName("serve.queries_total"),
            "pspc_serve_queries_total");
  EXPECT_EQ(PrometheusMetricName("obs.health_status"),
            "pspc_obs_health_status");
}

// ------------------------------------------------- server route goldens

// Handle() is the routing logic minus the socket; these goldens pin
// status codes, content types, and body shape per route.
class ObsServerRoutesTest : public ::testing::Test {
 protected:
  ObsServerRoutesTest()
      : recorder_(16),
        traces_(8, /*slow_threshold_us=*/0.0),
        watchdog_([this] {
          HealthOptions options;
          options.metrics = &registry_;
          options.recorder = &recorder_;
          options.traces = &traces_;
          options.update_traces = &update_traces_;
          options.interval_ms = 0;
          return options;
        }()),
        server_(0, [this] {
          ObsServerContext context;
          context.metrics = &registry_;
          context.health = &watchdog_;
          context.recorder = &recorder_;
          context.traces = &traces_;
          context.update_traces = &update_traces_;
          context.component = "pspc-test";
          return context;
        }()) {}

  MetricsRegistry registry_;
  FlightRecorder recorder_;
  TraceCollector traces_;
  UpdateTraceLog update_traces_;
  HealthWatchdog watchdog_;
  ObsServer server_;
};

TEST_F(ObsServerRoutesTest, MetricsRouteIsValidPrometheusText) {
  registry_.GetCounter(kServeQueriesTotal)->Increment(2);
  registry_.GetHistogram(kServeQueryLatencyUs)->Record(5.0);
  const ObsServer::Response response = server_.Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  const PromValidationResult result =
      ValidatePrometheusText(response.body, /*require_catalog=*/true);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_F(ObsServerRoutesTest, MetricsJsonRouteCarriesSchemaVersion) {
  const ObsServer::Response response = server_.Handle("/metrics.json");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"schema_version\":1"), std::string::npos);
}

TEST_F(ObsServerRoutesTest, HealthzFollowsTheWatchdog) {
  watchdog_.Evaluate();
  ObsServer::Response response = server_.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"OK\""), std::string::npos);

  // Saturate the queue until the watchdog flips UNHEALTHY: the route
  // must turn 503 and name the firing rule.
  registry_.GetGauge(kServeQueueCapacity)->Set(10);
  registry_.GetGauge(kServeQueueDepth)->Set(10);
  for (int tick = 0; tick < 3; ++tick) watchdog_.Evaluate();
  response = server_.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("\"status\":\"UNHEALTHY\""),
            std::string::npos);
  EXPECT_NE(response.body.find("queue_saturation"), std::string::npos);

  // Recovery flips it back to 200.
  registry_.GetGauge(kServeQueueDepth)->Set(0);
  watchdog_.Evaluate();
  response = server_.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
}

TEST_F(ObsServerRoutesTest, HealthzWithoutWatchdogIsOk) {
  ObsServerContext context;
  context.metrics = &registry_;
  const ObsServer server(0, context);
  const ObsServer::Response response = server.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("no health watchdog configured"),
            std::string::npos);
}

TEST_F(ObsServerRoutesTest, VarzReportsComponentAndGauges) {
  registry_.GetGauge(kServePublishedGeneration)->Set(7);
  const ObsServer::Response response = server_.Handle("/varz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"component\":\"pspc-test\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"published_generation\":7"),
            std::string::npos);
  EXPECT_NE(response.body.find("\"schema_version\":1"), std::string::npos);
}

TEST_F(ObsServerRoutesTest, TracezRendersBothTraceLogs) {
  UpdateTrace trace;
  trace.batch_id = 42;
  trace.submitted = 3;
  trace.applied = 2;
  trace.ok = true;
  update_traces_.Record(trace);
  const ObsServer::Response response = server_.Handle("/tracez");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(response.body.find("\"update_batches\""), std::string::npos);
  EXPECT_NE(response.body.find("\"batch_id\":42"), std::string::npos);
}

TEST_F(ObsServerRoutesTest, FlightRecorderRouteDumpsTheRing) {
  recorder_.Record(FlightEventKind::kPublish, 1, 2, 3);
  const ObsServer::Response response = server_.Handle("/flightrecorder");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"events\""), std::string::npos);
  EXPECT_NE(response.body.find("publish"), std::string::npos);
}

TEST_F(ObsServerRoutesTest, IndexListsRoutesAndUnknownPathIs404) {
  const ObsServer::Response index = server_.Handle("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/flightrecorder"), std::string::npos);

  const ObsServer::Response missing = server_.Handle("/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("unknown path"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pspc
