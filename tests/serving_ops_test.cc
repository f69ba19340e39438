// The live ops plane over a real serving engine: HTTP endpoints
// scraped through actual sockets, concurrent scrapes during a mixed
// read/write workload, write-path traces surfacing in /tracez, and the
// acceptance fault injection — a reader holding a ref to every
// generation stalls reclamation until the watchdog flips /healthz to
// 503 naming reclaim_backlog, dumps a bundle containing the triggering
// events, and recovers to 200 once the refs are released.
//
// All OpenMP knobs are pinned to one thread — libgomp is not
// TSan-instrumented, and a team of one never spawns — so every thread
// TSan watches is one of ours (the TSan job runs this file).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/serve/serving_engine.h"
#include "tests/test_util.h"
#include "tools/prom_validate.h"

namespace pspc {
namespace {

BuildOptions SingleThreadBuild() {
  BuildOptions options;
  options.num_landmarks = 4;
  options.num_threads = 1;
  return options;
}

std::unique_ptr<DynamicSpcIndex> MakeIndex(const Graph& graph,
                                           obs::MetricsRegistry* registry,
                                           obs::FlightRecorder* recorder) {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;
  options.rebuild_options = SingleThreadBuild();
  options.num_threads = 1;
  options.metrics = registry;
  options.flight_recorder = recorder;
  return std::make_unique<DynamicSpcIndex>(graph, SingleThreadBuild(),
                                           options);
}

// Minimal blocking HTTP/1.1 GET against 127.0.0.1:port — the raw-socket
// client side of the ops plane, so the tests exercise the server's real
// request/response path rather than just Handle().
struct HttpResponse {
  int status = 0;
  std::string body;
};

HttpResponse HttpGet(uint16_t port, const std::string& path) {
  HttpResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 <code> ..." then headers then blank line then body.
  if (raw.size() > 12 && raw.compare(0, 9, "HTTP/1.1 ") == 0) {
    out.status = std::atoi(raw.c_str() + 9);
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = raw.substr(split + 4);
  return out;
}

// One fully wired ops plane over one engine: private registry and
// recorder, manual-tick watchdog, ephemeral-port server.
struct OpsPlane {
  explicit OpsPlane(ServingEngine& engine, obs::MetricsRegistry* registry,
                    obs::FlightRecorder* recorder)
      : watchdog([&] {
          obs::HealthOptions options;
          options.metrics = registry;
          options.recorder = recorder;
          options.traces = &engine.Traces();
          options.update_traces = &engine.UpdateTraces();
          options.interval_ms = 0;  // tests tick manually
          return options;
        }()),
        server(0, [&] {
          obs::ObsServerContext context;
          context.metrics = registry;
          context.health = &watchdog;
          context.recorder = recorder;
          context.traces = &engine.Traces();
          context.update_traces = &engine.UpdateTraces();
          return context;
        }()) {}

  obs::HealthWatchdog watchdog;
  obs::ObsServer server;
};

TEST(ServingOpsTest, LiveEndpointsServeOverHttp) {
  const Graph graph = GenerateBarabasiAlbert(60, 3, 11);
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(64);
  auto index = MakeIndex(graph, &registry, &recorder);

  ServingOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  ServingEngine engine(index.get(), options);
  engine.SubmitBatch(MakeRandomQueries(60, 32, 3)).get();
  ASSERT_TRUE(
      engine.ApplyUpdate({0, graph.Neighbors(0)[0], EdgeUpdateKind::kDelete})
          .ok());
  engine.Drain();

  OpsPlane ops(engine, &registry, &recorder);
  ops.watchdog.Evaluate();
  ASSERT_TRUE(ops.server.Start().ok());
  const uint16_t port = ops.server.Port();
  ASSERT_GT(port, 0);

  // /metrics must be valid catalog-conforming Prometheus text.
  const HttpResponse metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  const obs::PromValidationResult prom =
      obs::ValidatePrometheusText(metrics.body, /*require_catalog=*/true);
  EXPECT_TRUE(prom.ok) << prom.error;
  EXPECT_GT(prom.families, 10u);

  const HttpResponse json = HttpGet(port, "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.body.find("serve.queries_total"), std::string::npos);

  const HttpResponse healthz = HttpGet(port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"OK\""), std::string::npos);

  const HttpResponse varz = HttpGet(port, "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.body.find("\"published_generation\":1"),
            std::string::npos);

  const HttpResponse flight = HttpGet(port, "/flightrecorder");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("\"kind\":\"publish\""), std::string::npos);

  EXPECT_EQ(HttpGet(port, "/nope").status, 404);
  EXPECT_GE(ops.server.RequestsServed(), 6u);
  ops.server.Stop();
}

// The acceptance fault injection: a reader that keeps a ref to every
// generation stalls reclaim, the backlog grows past the floor,
// /healthz flips to 503 naming reclaim_backlog, the bundle carries the
// triggering publish events, and releasing the refs recovers the plane
// to 200/OK.
TEST(ServingOpsTest, ReclaimStallFlipsHealthzAndRecovers) {
  const Graph graph = GenerateBarabasiAlbert(50, 3, 13);
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(128);
  auto index = MakeIndex(graph, &registry, &recorder);

  ServingOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  ServingEngine engine(index.get(), options);

  OpsPlane ops(engine, &registry, &recorder);
  ASSERT_TRUE(ops.server.Start().ok());
  const uint16_t port = ops.server.Port();
  ops.watchdog.Evaluate();  // baseline tick (backlog flat at zero)

  // Fault: a reader keeps a ref to every published generation while
  // the writer keeps writing. Every publish retires a generation that
  // reader still holds, so the backlog grows by one per update —
  // exactly the signature the reclaim_backlog rule watches for.
  std::vector<std::shared_ptr<const IndexSnapshot>> pins;
  pins.push_back(engine.PinSnapshot());
  const VertexId u = 0;
  const VertexId v = graph.Neighbors(0)[0];
  obs::HealthReport report;
  for (int i = 0; i < 8; ++i) {
    const EdgeUpdateKind kind =
        i % 2 == 0 ? EdgeUpdateKind::kDelete : EdgeUpdateKind::kInsert;
    ASSERT_TRUE(engine.ApplyUpdate({u, v, kind}).ok());
    pins.push_back(engine.PinSnapshot());
    report = ops.watchdog.Evaluate();
  }
  ASSERT_EQ(report.status, obs::HealthStatus::kUnhealthy);
  EXPECT_EQ(report.worst_rule, obs::HealthRuleId::kReclaimBacklog);

  // The live endpoint reports the outage and names the firing rule.
  const HttpResponse sick = HttpGet(port, "/healthz");
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("\"status\":\"UNHEALTHY\""), std::string::npos);
  EXPECT_NE(sick.body.find("reclaim_backlog"), std::string::npos);

  // The bundle captured on the UNHEALTHY transition holds the evidence:
  // the publish events whose retirements could not be reclaimed, the
  // metrics snapshot, and the health verdict.
  const std::string bundle = ops.watchdog.LastBundle();
  EXPECT_NE(bundle.find("\"bundle_version\":1"), std::string::npos);
  EXPECT_NE(bundle.find("reclaim_backlog"), std::string::npos);
  EXPECT_NE(bundle.find("\"kind\":\"publish\""), std::string::npos);
  EXPECT_NE(bundle.find("serve.snapshots_retired_pending"),
            std::string::npos);
  EXPECT_GE(registry.GetGauge(obs::kServeSnapshotsRetiredPending)->Value(),
            5);

  // Recovery: release the refs; the next publish reclaims the backlog
  // and the next tick sees it flat (or shrinking), clearing the rule.
  pins.clear();
  ASSERT_TRUE(engine.ApplyUpdate({u, v, EdgeUpdateKind::kDelete}).ok());
  report = ops.watchdog.Evaluate();
  EXPECT_EQ(report.status, obs::HealthStatus::kOk);
  const HttpResponse well = HttpGet(port, "/healthz");
  EXPECT_EQ(well.status, 200);
  EXPECT_NE(well.body.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_LT(registry.GetGauge(obs::kServeSnapshotsRetiredPending)->Value(),
            5);
  ops.server.Stop();
}

// Scrapers hammer every endpoint over real sockets while loaders and a
// writer run — the TSan proof that the ops plane's read paths never
// race the hot paths, plus a liveness check that every scrape stays
// well-formed mid-flight.
TEST(ServingOpsTest, ConcurrentScrapesDuringMixedWorkload) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 17);
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(64);
  auto index = MakeIndex(graph, &registry, &recorder);

  ServingOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  options.trace_sample_every_n = 4;
  ServingEngine engine(index.get(), options);

  OpsPlane ops(engine, &registry, &recorder);
  ASSERT_TRUE(ops.server.Start().ok());
  const uint16_t port = ops.server.Port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    const char* paths[] = {"/metrics", "/metrics.json", "/healthz",
                           "/varz", "/tracez", "/flightrecorder"};
    size_t i = 0;
    // relaxed: stop/progress flag only; thread join is the sync point.
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string path = paths[i++ % 6];
      const HttpResponse response = HttpGet(port, path);
      EXPECT_TRUE(response.status == 200 || response.status == 503) << path;
      if (path == "/metrics" && response.status == 200) {
        const obs::PromValidationResult prom = obs::ValidatePrometheusText(
            response.body, /*require_catalog=*/true);
        EXPECT_TRUE(prom.ok) << prom.error;
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread ticker([&] {
    // relaxed: stop/progress flag only; thread join is the sync point.
    while (!stop.load(std::memory_order_relaxed)) {
      ops.watchdog.Evaluate();
    }
  });

  // The workload starts once the scraper has scraped: on a loaded
  // machine it can otherwise finish before the scraper thread first runs.
  // relaxed: progress flag only.
  while (scrapes.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  std::thread loader([&] {
    for (int round = 0; round < 15; ++round) {
      engine.SubmitBatch(MakeRandomQueries(60, 16, round)).get();
    }
  });
  const VertexId u = 0;
  const VertexId v = graph.Neighbors(0)[0];
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.ApplyUpdate({u, v, EdgeUpdateKind::kDelete}).ok());
    ASSERT_TRUE(engine.ApplyUpdate({u, v, EdgeUpdateKind::kInsert}).ok());
  }

  loader.join();
  engine.Drain();
  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  ticker.join();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_GE(ops.server.RequestsServed(), scrapes.load());
  ops.server.Stop();
}

// Write-path tracing: every ApplyUpdates batch leaves one batch-id
// correlated UpdateTrace with its plan/repair/publish/reclaim stage
// costs, `/tracez` renders them, and the flight recorder carries the
// matching batch_apply events.
TEST(ServingOpsTest, UpdateTracesCorrelateBatchesAcrossThePlane) {
  const Graph graph = GenerateBarabasiAlbert(50, 3, 19);
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(64);
  auto index = MakeIndex(graph, &registry, &recorder);

  ServingOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  ServingEngine engine(index.get(), options);

  // Batch 1: a two-edge coalesced batch (the planner runs, so the plan
  // stage has nonzero cost). Batch 2: a single update (plan cost zero
  // by design). Batch 3: a rejected batch (validation fails, no
  // publish).
  const VertexId n0 = graph.Neighbors(0)[0];
  VertexId n1 = graph.Neighbors(1)[0];
  for (const VertexId w : graph.Neighbors(1)) {
    // Skip w == 0 when n0 == 1: {1, w} would be the same undirected
    // edge as {0, n0}, and the batch must delete two distinct edges.
    if (!(n0 == 1 && w == 0)) {
      n1 = w;
      break;
    }
  }
  EdgeUpdateBatch coalesced;
  coalesced.Delete(0, n0);
  coalesced.Delete(1, n1);
  ASSERT_TRUE(engine.ApplyUpdates(coalesced).ok());
  ASSERT_TRUE(engine.ApplyUpdate({0, n0, EdgeUpdateKind::kInsert}).ok());
  EdgeUpdateBatch rejected;
  rejected.Insert(0, 10'000);  // out of range
  ASSERT_FALSE(engine.ApplyUpdates(rejected).ok());
  engine.Drain();

  const std::vector<obs::UpdateTrace> log = engine.UpdateTraces().Log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_GT(log[0].batch_id, 0u);
  EXPECT_LT(log[0].batch_id, log[1].batch_id);
  EXPECT_LT(log[1].batch_id, log[2].batch_id);

  EXPECT_TRUE(log[0].ok);
  EXPECT_EQ(log[0].submitted, 2u);
  EXPECT_EQ(log[0].applied, 2u);
  EXPECT_GT(log[0].plan_us, 0.0);
  EXPECT_GT(log[0].repair_us, 0.0);
  EXPECT_GT(log[0].publish_us, 0.0);
  EXPECT_GT(log[0].total_us, 0.0);
  EXPECT_EQ(log[0].generation, 1u);

  EXPECT_TRUE(log[1].ok);
  EXPECT_EQ(log[1].submitted, 1u);
  EXPECT_GE(log[1].plan_us, 0.0);  // still planned (1-element batch)
  EXPECT_GT(log[1].repair_us, 0.0);
  EXPECT_EQ(log[1].generation, 2u);

  EXPECT_FALSE(log[2].ok);
  EXPECT_EQ(log[2].applied, 0u);
  EXPECT_EQ(log[2].generation, 0u);  // nothing published

  // The flight recorder carries one batch_apply event per submission
  // (rejected included), batch-id correlated with the trace log; the
  // rejected batch's event shows zero updates applied.
  size_t batch_events = 0;
  for (const obs::FlightEvent& event : recorder.Events()) {
    if (event.kind != obs::FlightEventKind::kBatchApply) continue;
    EXPECT_TRUE(event.args[0] == log[0].batch_id ||
                event.args[0] == log[1].batch_id ||
                event.args[0] == log[2].batch_id);
    if (event.args[0] == log[2].batch_id) {
      EXPECT_EQ(event.args[2], 0u);
    }
    ++batch_events;
  }
  EXPECT_EQ(batch_events, 3u);

  // And /tracez renders the same correlation for operators.
  OpsPlane ops(engine, &registry, &recorder);
  const obs::ObsServer::Response tracez = ops.server.Handle("/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"update_batches\""), std::string::npos);
  EXPECT_NE(tracez.body.find(
                "\"batch_id\":" + std::to_string(log[0].batch_id)),
            std::string::npos);
}

}  // namespace
}  // namespace pspc
