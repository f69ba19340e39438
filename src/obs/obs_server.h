#ifndef PSPC_SRC_OBS_OBS_SERVER_H_
#define PSPC_SRC_OBS_OBS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

/// Minimal embedded HTTP/1.1 introspection endpoint — blocking POSIX
/// sockets, one accept-loop thread, no dependencies. Connections are
/// handled serially and closed after one response (`Connection:
/// close`); scrapers and operators with curl are the audience, not
/// high-fanout clients.
///
/// Routes:
///   GET /metrics         Prometheus text exposition
///   GET /metrics.json    versioned JSON snapshot (same schema as
///                        --metrics-json files)
///   GET /healthz         200 (OK/DEGRADED) or 503 (UNHEALTHY) with
///                        the watchdog's report as the body
///   GET /varz            build info, uptime, generation and
///                        snapshot/queue state
///   GET /tracez          slow-query traces + recent update-batch
///                        traces
///   GET /flightrecorder  the flight-recorder ring as JSON
namespace pspc {
namespace obs {

/// What the endpoints read. Only `metrics` is required; null optional
/// sources render as absent/empty sections.
struct ObsServerContext {
  MetricsRegistry* metrics = nullptr;  ///< null selects Global()
  HealthWatchdog* health = nullptr;
  FlightRecorder* recorder = nullptr;  ///< null selects Global()
  const TraceCollector* traces = nullptr;
  const UpdateTraceLog* update_traces = nullptr;
  std::string component = "pspc";  ///< reported in /varz
};

class ObsServer {
 public:
  /// `port == 0` binds an ephemeral port (see `Port()` after Start).
  /// Binds 127.0.0.1 — the ops plane is host-local by default.
  ObsServer(uint16_t port, ObsServerContext context);
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds, listens, and spawns the accept thread.
  Status Start();
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t Port() const { return port_; }

  uint64_t RequestsServed() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Routing logic, exposed for tests: maps a request path to
  /// (status code, content type, body).
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  Response Handle(const std::string& path) const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  ObsServerContext context_;
  uint16_t port_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  int64_t start_ns_ = 0;
  std::thread thread_;
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_OBS_SERVER_H_
