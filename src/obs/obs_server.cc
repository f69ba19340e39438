#include "src/obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/json_writer.h"
#include "src/obs/metric_names.h"

namespace pspc {
namespace obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr int kIoTimeoutMs = 2000;

const char* StatusLine(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 400: return "400 Bad Request";
    case 404: return "404 Not Found";
    case 405: return "405 Method Not Allowed";
    case 503: return "503 Service Unavailable";
    default: return "500 Internal Server Error";
  }
}

}  // namespace

ObsServer::ObsServer(uint16_t port, ObsServerContext context)
    : context_(std::move(context)), port_(port) {
  if (context_.metrics == nullptr) context_.metrics = &MetricsRegistry::Global();
  if (context_.recorder == nullptr) context_.recorder = &FlightRecorder::Global();
}

ObsServer::~ObsServer() { Stop(); }

Status ObsServer::Start() {
  // relaxed: Start/Stop are externally serialized; the flag only
  // gates idempotence.
  if (running_.load(std::memory_order_relaxed)) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind 127.0.0.1:" + std::to_string(port_) + ": " +
                           err);
  }
  if (::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  start_ns_ = TraceNowNs();
  // relaxed: the std::thread constructor below orders this store
  // before AcceptLoop's first load.
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ObsServer::Stop() {
  // relaxed: only the flag flips here; join() is the synchronization
  // point with the accept thread.
  if (!running_.exchange(false, std::memory_order_relaxed)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ObsServer::AcceptLoop() {
  // relaxed: shutdown poll; the 100ms poll() bound makes staleness
  // harmless.
  while (running_.load(std::memory_order_relaxed)) {
    // Poll with a short timeout so Stop() is prompt without resorting
    // to cross-thread close() races on the listen fd.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ServeConnection(fd);
    ::close(fd);
  }
}

void ObsServer::ServeConnection(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutMs / 1000;
  tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    // A bare "GET /path HTTP/1.x\r\n" followed by EOF is also fine.
    if (request.find('\n') != std::string::npos &&
        request.find("\r\n\r\n") == std::string::npos) {
      // keep reading until blank line or timeout; header-only requests
      // from curl always terminate with the blank line.
      continue;
    }
  }

  Response response;
  const size_t line_end = request.find('\n');
  if (line_end == std::string::npos) return;  // no request line at all
  std::string line = request.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  const std::string method = line.substr(0, sp1);
  std::string path = sp1 == std::string::npos
                         ? std::string()
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    response.status = 405;
    response.body = "only GET is supported\n";
  } else if (path.empty()) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else {
    response = Handle(path);
  }
  // relaxed: monotonic request tally for /varz.
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::string out = "HTTP/1.1 ";
  out += StatusLine(response.status);
  out += "\r\nContent-Type: " + response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

ObsServer::Response ObsServer::Handle(const std::string& path) const {
  Response response;
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = context_.metrics->ToPrometheusText();
    return response;
  }
  if (path == "/metrics.json") {
    response.content_type = "application/json";
    response.body = context_.metrics->ToJson() + "\n";
    return response;
  }
  if (path == "/healthz") {
    response.content_type = "application/json";
    if (context_.health == nullptr) {
      benchjson::Object object;
      object.Add("status", "OK");
      object.Add("reason", "no health watchdog configured");
      response.body = object.Serialize() + "\n";
      return response;
    }
    const HealthReport report = context_.health->Current();
    if (report.status == HealthStatus::kUnhealthy) response.status = 503;
    response.body = report.ToJson() + "\n";
    return response;
  }
  if (path == "/varz") {
    response.content_type = "application/json";
    benchjson::Object object;
    object.Add("component", context_.component);
    object.Add("schema_version", kMetricsSchemaVersion);
#if defined(NDEBUG)
    object.Add("build_mode", "release");
#else
    object.Add("build_mode", "debug");
#endif
#if defined(__VERSION__)
    object.Add("compiler", __VERSION__);
#endif
    object.Add("uptime_seconds",
               static_cast<double>(TraceNowNs() - start_ns_) * 1e-9);
    // relaxed: point-in-time tally read.
    object.Add("requests_served",
               requests_.load(std::memory_order_relaxed));
    auto gauge = [this](const char* name) {
      return context_.metrics->GetGauge(name)->Value();
    };
    benchjson::Object serve;
    serve.Add("published_generation", gauge(kServePublishedGeneration));
    serve.Add("snapshots_retired_pending",
              gauge(kServeSnapshotsRetiredPending));
    serve.Add("queue_depth", gauge(kServeQueueDepth));
    serve.Add("queue_capacity", gauge(kServeQueueCapacity));
    object.AddRaw("serve", serve.Serialize());
    benchjson::Object dynamic;
    dynamic.Add("generation", gauge(kDynamicGeneration));
    dynamic.Add("overlay_entries", gauge(kDynamicOverlayEntries));
    dynamic.Add("overlay_vertices", gauge(kDynamicOverlayVertices));
    dynamic.Add("base_entries", gauge(kDynamicBaseEntries));
    dynamic.Add("rebuild_in_progress", gauge(kDynamicRebuildInProgress));
    object.AddRaw("dynamic", dynamic.Serialize());
    object.Add("health_status",
               gauge(kObsHealthStatus));
    response.body = object.Serialize() + "\n";
    return response;
  }
  if (path == "/tracez") {
    response.content_type = "application/json";
    benchjson::Object object;
    object.AddRaw("slow_queries", context_.traces != nullptr
                                      ? context_.traces->SlowTracesToJson()
                                      : "[]");
    object.AddRaw("update_batches",
                  context_.update_traces != nullptr
                      ? context_.update_traces->ToJson()
                      : "[]");
    response.body = object.Serialize() + "\n";
    return response;
  }
  if (path == "/flightrecorder") {
    response.content_type = "application/json";
    response.body = context_.recorder->ToJson() + "\n";
    return response;
  }
  if (path == "/") {
    response.body =
        "pspc ops plane\n"
        "  /metrics         Prometheus text exposition\n"
        "  /metrics.json    versioned JSON metrics snapshot\n"
        "  /healthz         health watchdog verdict (200/503)\n"
        "  /varz            build info + process state\n"
        "  /tracez          slow-query + update-batch traces\n"
        "  /flightrecorder  recent control-plane events\n";
    return response;
  }
  response.status = 404;
  response.body = "unknown path: " + path + "\n";
  return response;
}

}  // namespace obs
}  // namespace pspc
