// Command-line SPC tool: build an index from an edge-list file (or a
// named synthetic dataset), persist it, answer queries, and replay
// edge-update streams against the dynamic index.
//
//   ./spc_cli build  <graph.txt|dataset:CODE> <index.bin> [--hp-spc]
//                    [--order degree|sig|road|hybrid] [--threads N]
//   ./spc_cli query  <graph-or-dataset> <index.bin> <s> <t> [s t ...]
//   ./spc_cli stats  <graph-or-dataset>
//   ./spc_cli index-stats <graph-or-dataset> <index.bin>
//                    [--update-stream <updates.txt>]
//
// `index-stats` profiles a built index: label-size / distance / hub
// distributions and label bytes. With `--update-stream` it additionally
// replays the stream repair-only and reports the overlay before and
// after `DynamicSpcIndex::Fold()`: overlay width, stale entries pruned,
// and label bytes of the folded base.
//   ./spc_cli update <graph-or-dataset> <index.bin>
//                    --update-stream <updates.txt>
//                    [--batch-size N] [--rebuild-threshold R]
//                    [--save <out.bin>] [--metrics-json <path>]
//   ./spc_cli serve  <graph-or-dataset> <index.bin>
//                    [--duration-seconds S] [--workers N] [--loaders N]
//                    [--batch B] [--batch-size N] [--write-share P]
//                    [--update-stream <updates.txt>] [--seed X] [--no-cache]
//                    [--metrics-json <path>] [--metrics-prom <path>]
//                    [--metrics-interval-ms N] [--obs-port N]
//                    [--bundle <path>]
//                    [--trace-sample N] [--slow-trace-ms X]
//
// Observability: `--metrics-json` writes the versioned metrics
// snapshot (counters / gauges / latency histograms with p50/p95/p99)
// to the given path — once at exit for `update`, and additionally
// every `--metrics-interval-ms` while `serve` runs (atomic
// rename-free overwrite; scrape by re-reading the file).
// `--metrics-prom` does the same in Prometheus text format. A final
// snapshot that cannot be written makes the command exit 1.
// `--trace-sample N` traces one in N queries; traced queries slower
// than `--slow-trace-ms` end-to-end are dumped as JSON at exit.
//
// Live ops plane (`serve` only): `--obs-port N` starts the embedded
// HTTP introspection endpoint on 127.0.0.1:N (0 = ephemeral; the
// bound port is printed) serving /metrics, /metrics.json, /healthz,
// /varz, /tracez and /flightrecorder, with the health watchdog
// ticking in the background. `--bundle <path>` is where a transition
// to UNHEALTHY dumps the diagnostic bundle (flight-recorder ring +
// metrics + traces).
//
// SIGINT/SIGTERM stop `serve` and `update` cleanly: the workload
// winds down, the final metrics snapshots still flush, and the
// process exits through the normal reporting path.
//
// Directed variants (paper §II-A): `--directed <graph-or-dataset>`
// stands where `<graph-or-dataset> <index.bin>` does, and the ids and
// flags that follow are the undirected ones. The index is built
// in-process from the graph (a directed index has no on-disk format,
// so `update` takes no `--save`), each edge-list line read as one
// directed edge u -> v; a dataset: code loads the symmetric closure of
// the undirected graph.
//
//   ./spc_cli query  --directed <graph-or-dataset> <s> <t> [s t ...]
//   ./spc_cli update --directed <graph-or-dataset> [the update flags]
//   ./spc_cli serve  --directed <graph-or-dataset> [the serve flags]
//
// `--batch-size N` groups writes: `update` replays the stream N
// updates per atomic ApplyBatch (coalesced repair, one snapshot
// generation per batch in `serve`); 1 = update-by-update.
//
// Examples:
//   ./spc_cli build dataset:FB /tmp/fb.idx --order hybrid
//   ./spc_cli query dataset:FB /tmp/fb.idx 0 17 3 99
//   ./spc_cli update dataset:FB /tmp/fb.idx --update-stream churn.txt
//   ./spc_cli serve dataset:FB /tmp/fb.idx --write-share 0.05

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/mutex.h"
#include "src/common/percentile.h"
#include "src/common/random.h"
#include "src/common/thread_annotations.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/digraph/digraph_io.h"
#include "src/dynamic/closure_churn.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/algorithms.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_io.h"
#include "src/label/index_stats.h"
#include "src/label/query_engine.h"
#include "src/label/spc_index.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/serve/serving_engine.h"

namespace {

// SIGINT/SIGTERM request a clean wind-down: the long-running loops
// poll this and exit through the normal path, so the final metrics
// flush (and bundle dump) still runs.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleStopSignal(int) { g_interrupted = 1; }

void InstallStopHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

// Writes `content` (already-serialized JSON) plus a trailing newline.
bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "write failed for %s\n", path.c_str());
  return ok;
}

// Periodic metrics exporter: rewrites `json_path` (JSON snapshot) and
// `prom_path` (Prometheus text) every `interval_ms` until `Finish()`,
// which writes the final snapshots — also on a signal-driven
// wind-down, so an interrupted run still leaves a current snapshot
// behind. Interval 0 = no thread, final write only.
class MetricsReporter {
 public:
  MetricsReporter(pspc::obs::MetricsRegistry* registry, std::string json_path,
                  std::string prom_path, long long interval_ms)
      : registry_(registry),
        json_path_(std::move(json_path)),
        prom_path_(std::move(prom_path)) {
    if ((json_path_.empty() && prom_path_.empty()) || interval_ms <= 0) {
      return;
    }
    thread_ = std::thread([this, interval_ms] {
      for (;;) {
        {
          pspc::spc::MutexLock lock(mu_);
          if (stop_) return;
          cv_.WaitFor(mu_, std::chrono::milliseconds(interval_ms));
          if (stop_) return;
        }
        // Outside mu_: snapshot serialization has no business blocking
        // the stop handshake. A failed periodic write is retried on the
        // next tick; only the final one decides the exit code.
        WriteSnapshots();
      }
    });
  }

  MetricsReporter(const MetricsReporter&) = delete;
  MetricsReporter& operator=(const MetricsReporter&) = delete;

  ~MetricsReporter() { StopThread(); }

  // Stops the periodic writes and writes the final snapshots; false
  // (the reason printed) if a file could not be written.
  bool Finish() {
    StopThread();
    return WriteSnapshots();
  }

 private:
  void StopThread() {
    if (!thread_.joinable()) return;
    {
      pspc::spc::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

  bool WriteSnapshots() {
    bool ok = true;
    if (!json_path_.empty()) {
      ok = WriteTextFile(json_path_, registry_->ToJson());
    }
    if (!prom_path_.empty()) {
      ok = WriteTextFile(prom_path_, registry_->ToPrometheusText()) && ok;
    }
    return ok;
  }

  pspc::obs::MetricsRegistry* registry_;
  std::string json_path_;
  std::string prom_path_;
  pspc::spc::Mutex mu_{pspc::spc::LockRank::kClient};
  pspc::spc::CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  spc_cli build <graph.txt|dataset:CODE> <index.bin> "
               "[--hp-spc] [--order degree|sig|road|hybrid] [--threads N]\n"
               "  spc_cli query <graph-or-dataset> <index.bin> <s> <t> ...\n"
               "  spc_cli stats <graph-or-dataset>\n"
               "  spc_cli index-stats <graph-or-dataset> <index.bin> "
               "[--update-stream <updates.txt>]\n"
               "  spc_cli update <graph-or-dataset> <index.bin> "
               "--update-stream <updates.txt> [--batch-size N] "
               "[--rebuild-threshold R] [--save <out.bin>] "
               "[--metrics-json <path>] [--metrics-prom <path>]\n"
               "  spc_cli serve <graph-or-dataset> <index.bin> "
               "[--duration-seconds S] [--workers N] [--loaders N] "
               "[--batch B] [--batch-size N] [--write-share P] "
               "[--update-stream <updates.txt>] [--seed X] [--no-cache] "
               "[--metrics-json <path>] [--metrics-prom <path>] "
               "[--metrics-interval-ms N] [--obs-port N] [--bundle <path>] "
               "[--trace-sample N] [--slow-trace-ms X]\n"
               "  spc_cli query|update|serve --directed <graph-or-dataset> "
               "[the ids and flags above; update takes no --save]\n");
  return 2;
}

bool DirectedMode(int argc, char** argv) {
  return argc > 2 && std::strcmp(argv[2], "--directed") == 0;
}

// Strict numeric flag parsing: `--batch-size 0`, `--workers x`, or a
// trailing-garbage value like `--loaders 2q` is a usage error, not a
// silently clamped (or zero) configuration.
bool ParseIntFlag(const char* flag, const char* text, long long min_value,
                  long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < min_value) {
    std::fprintf(stderr, "%s expects an integer >= %lld (got '%s')\n", flag,
                 min_value, text);
    return false;
  }
  *out = value;
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* text, double min_value,
                     double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(value >= min_value)) {
    std::fprintf(stderr, "%s expects a number >= %g (got '%s')\n", flag,
                 min_value, text);
    return false;
  }
  *out = value;
  return true;
}

// Prints why `arg` did not load; returns false for the caller.
bool LoadFailed(const std::string& arg, const pspc::Status& status) {
  std::fprintf(stderr, "failed to load %s: %s\n", arg.c_str(),
               status.ToString().c_str());
  return false;
}

bool LoadGraphArg(const std::string& arg, pspc::Graph* out) {
  if (arg.rfind("dataset:", 0) == 0) {
    const auto spec = pspc::DatasetByCode(arg.substr(8));
    if (!spec.ok()) return LoadFailed(arg, spec.status());
    *out = spec.value().build(1);
    return true;
  }
  auto r = pspc::LoadEdgeList(arg);
  if (!r.ok()) return LoadFailed(arg, r.status());
  *out = std::move(r).value();
  return true;
}

bool LoadDiGraphArg(const std::string& arg, pspc::DiGraph* out) {
  if (arg.rfind("dataset:", 0) == 0) {
    // Datasets are undirected; the directed path serves their
    // symmetric closure (directed SPC on it agrees with undirected).
    pspc::Graph graph;
    if (!LoadGraphArg(arg, &graph)) return false;
    *out = pspc::FromUndirected(graph);
    return true;
  }
  auto r = pspc::LoadDirectedEdgeList(arg);
  if (!r.ok()) return LoadFailed(arg, r.status());
  *out = std::move(r).value();
  return true;
}

// Loads the graph and index a command runs on, named by argv[2..3];
// the ids and flags of query, update and serve start at argv[4].
// Undirected: `<graph-or-dataset> <index.bin>`. A graph or index that
// does not load, or an index over another vertex count, prints one
// message and returns false.
bool LoadCommandIndex(char** argv, pspc::Graph* graph,
                      pspc::SpcIndex* index) {
  const char* graph_arg = argv[2];
  const char* index_path = argv[3];
  if (!LoadGraphArg(graph_arg, graph)) return false;
  auto loaded = pspc::SpcIndex::Load(index_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load index %s: %s\n", index_path,
                 loaded.status().ToString().c_str());
    return false;
  }
  if (loaded.value().NumVertices() != graph->NumVertices()) {
    std::fprintf(stderr, "index %s has %u vertices but graph %s has %u\n",
                 index_path, loaded.value().NumVertices(), graph_arg,
                 graph->NumVertices());
    return false;
  }
  *index = std::move(loaded).value();
  return true;
}

// Directed: `--directed <graph-or-dataset>`, the index built in-process
// because a directed SpcIndex has no on-disk format.
bool LoadCommandIndex(char** argv, pspc::DiGraph* graph,
                      pspc::SpcIndex* index) {
  if (!LoadDiGraphArg(argv[3], graph)) return false;
  pspc::WallTimer timer;
  *index = pspc::BuildDirectedPspcIndex(
               *graph, pspc::DirectedDegreeOrder(*graph), pspc::BuildOptions{})
               .index;
  std::printf("directed index: %u vertices, %llu edges, %zu entries "
              "(built in %.3fs)\n",
              graph->NumVertices(),
              static_cast<unsigned long long>(graph->NumEdges()),
              index->TotalEntries(), timer.ElapsedSeconds());
  return true;
}

// The BFS oracle of each edge direction.
pspc::SpcResult OracleSpc(const pspc::Graph& graph, pspc::VertexId s,
                          pspc::VertexId t) {
  return pspc::BfsSpcPair(graph, s, t);
}

pspc::SpcResult OracleSpc(const pspc::DiGraph& graph, pspc::VertexId s,
                          pspc::VertexId t) {
  return pspc::DiBfsSpcPair(graph, s, t);
}

// Validates the id arguments `argv[first..argc)` against an index of
// `n` vertices; malformed or out-of-range ids are usage errors (exit 2)
// in both directions.
bool ValidateVertexIds(int argc, char** argv, int first, pspc::VertexId n) {
  for (int i = first; i < argc; ++i) {
    char* end = nullptr;
    const long long id = std::strtoll(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0') {
      std::fprintf(stderr, "vertex id '%s' is not a number\n", argv[i]);
      return false;
    }
    if (id < 0 || static_cast<unsigned long long>(id) >= n) {
      if (n == 0) {
        std::fprintf(stderr, "vertex id %s out of range: index is empty\n",
                     argv[i]);
      } else {
        std::fprintf(stderr,
                     "vertex id %s out of range: index has %u vertices "
                     "(valid ids are 0..%u)\n",
                     argv[i], n, n - 1);
      }
      return false;
    }
  }
  return true;
}

// The serve flags (the same in both directions).
struct ServeParams {
  double duration_seconds = 5.0;
  double write_share = 0.05;
  int workers = 0;
  int loaders = 2;
  size_t batch = 16;
  size_t write_batch = 1;
  uint64_t seed = 42;
  bool no_cache = false;
  std::string stream_path;
  std::string metrics_json;
  std::string metrics_prom;
  long long metrics_interval_ms = 0;
  long long trace_sample = 0;
  double slow_trace_ms = 10.0;
  // Ops plane: -1 = no endpoint; 0 = ephemeral port (printed).
  long long obs_port = -1;
  std::string bundle_path;
};

bool ParseServeFlags(int argc, char** argv, int first, ServeParams* params) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--duration-seconds" && i + 1 < argc) {
      if (!ParseDoubleFlag("--duration-seconds", argv[++i], 0.0,
                           &params->duration_seconds)) {
        return false;
      }
    } else if (flag == "--write-share" && i + 1 < argc) {
      if (!ParseDoubleFlag("--write-share", argv[++i], 0.0,
                           &params->write_share)) {
        return false;
      }
    } else if (flag == "--workers" && i + 1 < argc) {
      // 0 = one worker per core (the ServingOptions default).
      long long value = 0;
      if (!ParseIntFlag("--workers", argv[++i], 0, &value)) return false;
      params->workers = static_cast<int>(value);
    } else if (flag == "--loaders" && i + 1 < argc) {
      long long value = 0;
      if (!ParseIntFlag("--loaders", argv[++i], 1, &value)) return false;
      params->loaders = static_cast<int>(value);
    } else if (flag == "--batch" && i + 1 < argc) {
      long long value = 0;
      if (!ParseIntFlag("--batch", argv[++i], 1, &value)) return false;
      params->batch = static_cast<size_t>(value);
    } else if (flag == "--batch-size" && i + 1 < argc) {
      long long value = 0;
      if (!ParseIntFlag("--batch-size", argv[++i], 1, &value)) return false;
      params->write_batch = static_cast<size_t>(value);
    } else if (flag == "--seed" && i + 1 < argc) {
      long long value = 0;
      if (!ParseIntFlag("--seed", argv[++i], 0, &value)) return false;
      params->seed = static_cast<uint64_t>(value);
    } else if (flag == "--update-stream" && i + 1 < argc) {
      params->stream_path = argv[++i];
    } else if (flag == "--no-cache") {
      params->no_cache = true;
    } else if (flag == "--metrics-json" && i + 1 < argc) {
      params->metrics_json = argv[++i];
    } else if (flag == "--metrics-prom" && i + 1 < argc) {
      params->metrics_prom = argv[++i];
    } else if (flag == "--obs-port" && i + 1 < argc) {
      if (!ParseIntFlag("--obs-port", argv[++i], 0, &params->obs_port) ||
          params->obs_port > 65535) {
        std::fprintf(stderr, "--obs-port expects a port in [0, 65535]\n");
        return false;
      }
    } else if (flag == "--bundle" && i + 1 < argc) {
      params->bundle_path = argv[++i];
    } else if (flag == "--metrics-interval-ms" && i + 1 < argc) {
      if (!ParseIntFlag("--metrics-interval-ms", argv[++i], 1,
                        &params->metrics_interval_ms)) {
        return false;
      }
    } else if (flag == "--trace-sample" && i + 1 < argc) {
      // 0 = tracing off.
      if (!ParseIntFlag("--trace-sample", argv[++i], 0,
                        &params->trace_sample)) {
        return false;
      }
    } else if (flag == "--slow-trace-ms" && i + 1 < argc) {
      if (!ParseDoubleFlag("--slow-trace-ms", argv[++i], 0.0,
                           &params->slow_trace_ms)) {
        return false;
      }
    } else {
      return false;
    }
  }
  if (params->write_share > 0.95) params->write_share = 0.95;
  return true;
}

// Loads the update stream named by `params` (empty batch when none).
bool LoadServeStream(const ServeParams& params,
                     pspc::EdgeUpdateBatch* stream) {
  if (params.stream_path.empty()) return true;
  auto r = pspc::LoadUpdateStream(params.stream_path);
  if (!r.ok()) {
    std::fprintf(stderr, "failed to load updates %s: %s\n",
                 params.stream_path.c_str(), r.status().ToString().c_str());
    return false;
  }
  *stream = std::move(r).value();
  return true;
}

// Serves `index` through a ServingEngine under a mixed read/write
// workload: loader threads submit random query batches (closed loop)
// while this thread applies edge updates — from the replayed stream
// when given, otherwise closure churn — self-paced toward
// `write_share` of total operations. After the drain, served answers
// are spot-checked against the BFS oracle on the live graph (the
// drained engine + idle writer make it a quiesce point). Returns the
// process exit code: 1 on an oracle mismatch or a failed final
// metrics write.
template <typename Index>
int RunServeWorkload(Index& index, const ServeParams& params,
                     pspc::EdgeUpdateBatch stream, pspc::ClosureChurn& churn) {
  const pspc::VertexId n = index.NumVertices();
  pspc::ServingOptions serving_options;
  serving_options.num_workers = params.workers;
  if (params.no_cache) serving_options.cache_capacity_per_shard = 0;
  serving_options.trace_sample_every_n =
      static_cast<uint64_t>(params.trace_sample);
  serving_options.trace_seed = params.seed;
  serving_options.slow_trace_us = params.slow_trace_ms * 1000.0;
  pspc::ServingEngine engine(&index, serving_options);
  std::printf("serving %s%u vertices / %llu edges: %d loaders x batch %zu, "
              "write share %.2f (batch size %zu), %.1fs\n",
              index.BaseIndex().Directed() ? "directed " : "", n,
              static_cast<unsigned long long>(index.NumEdges()),
              params.loaders, params.batch, params.write_share,
              params.write_batch, params.duration_seconds);

  InstallStopHandlers();
  // Periodic metrics exporter; Finish() below writes the final snapshot.
  MetricsReporter reporter(&engine.Metrics(), params.metrics_json,
                           params.metrics_prom, params.metrics_interval_ms);

  // Live ops plane: health watchdog over the engine's registry, and
  // (with --obs-port) the HTTP introspection endpoint in front of it.
  pspc::obs::HealthOptions health_options;
  health_options.metrics = &engine.Metrics();
  health_options.traces = &engine.Traces();
  health_options.update_traces = &engine.UpdateTraces();
  health_options.bundle_path = params.bundle_path;
  pspc::obs::HealthWatchdog watchdog(health_options);
  std::unique_ptr<pspc::obs::ObsServer> obs_server;
  if (params.obs_port >= 0) {
    watchdog.Start();
    pspc::obs::ObsServerContext context;
    context.metrics = &engine.Metrics();
    context.health = &watchdog;
    context.traces = &engine.Traces();
    context.update_traces = &engine.UpdateTraces();
    obs_server = std::make_unique<pspc::obs::ObsServer>(
        static_cast<uint16_t>(params.obs_port), context);
    if (const pspc::Status st = obs_server->Start(); !st.ok()) {
      std::fprintf(stderr, "ops endpoint failed to start: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("ops plane listening on http://127.0.0.1:%u "
                "(/metrics /metrics.json /healthz /varz /tracez "
                "/flightrecorder)\n",
                obs_server->Port());
  }
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> batch_ms(
      static_cast<size_t>(params.loaders));
  std::vector<std::thread> loader_threads;
  pspc::Rng seeder(params.seed);
  for (int i = 0; i < params.loaders; ++i) {
    pspc::Rng rng = seeder.Split();
    auto* out = &batch_ms[static_cast<size_t>(i)];
    loader_threads.emplace_back([&, rng, out]() mutable {
      // relaxed: stop flag and read tally are poll-only statistics;
      // join() is the synchronization point.
      while (!stop.load(std::memory_order_relaxed)) {
        pspc::QueryBatch queries =
            pspc::MakeRandomQueries(n, params.batch, rng.Next());
        pspc::WallTimer timer;
        engine.SubmitBatch(queries).get();
        out->push_back(timer.ElapsedMillis());
        // relaxed: throughput tally, read approximately by the pacer.
        reads.fetch_add(queries.size(), std::memory_order_relaxed);
      }
    });
  }

  // Writer loop: paced toward `write_share` of total operations,
  // consuming whole batches of up to `--batch-size` updates per atomic
  // ApplyUpdates call (one published generation each).
  pspc::Rng write_rng = seeder.Split();
  std::vector<double> update_ms;
  uint64_t writes = 0, write_errors = 0;
  size_t stream_pos = 0;
  pspc::WallTimer wall;
  while (wall.ElapsedSeconds() < params.duration_seconds &&
         g_interrupted == 0) {
    const double quota =
        params.write_share >= 0.95
            ? 1e18
            : params.write_share / (1.0 - params.write_share) *
                  // relaxed: pacing estimate; staleness only skews mix.
                  static_cast<double>(reads.load(std::memory_order_relaxed));
    if (params.write_share == 0.0 ||
        static_cast<double>(writes) >= quota) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    pspc::EdgeUpdateBatch write_chunk;
    while (write_chunk.Size() < params.write_batch) {
      if (!stream.Empty()) {
        if (stream_pos >= stream.Size()) break;  // stream exhausted
        write_chunk.Add(stream.Updates()[stream_pos++]);
      } else if (!churn.Empty()) {
        write_chunk.Add(churn.Next(write_rng));
      } else {
        break;  // nothing to churn (edgeless graph)
      }
    }
    if (write_chunk.Empty()) {
      // Keep serving reads until the deadline.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    pspc::WallTimer timer;
    const pspc::Status st = engine.ApplyUpdates(write_chunk);
    update_ms.push_back(timer.ElapsedMillis());
    if (st.ok()) {
      writes += write_chunk.Size();
    } else {
      write_errors += write_chunk.Size();
    }
  }
  const double elapsed = wall.ElapsedSeconds();
  // relaxed: join() below is the synchronization point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : loader_threads) t.join();
  engine.Drain();
  if (g_interrupted != 0) {
    std::printf("interrupted after %.2fs; winding down cleanly\n", elapsed);
  }

  std::vector<double> all_batch_ms;
  for (const auto& v : batch_ms) {
    all_batch_ms.insert(all_batch_ms.end(), v.begin(), v.end());
  }
  const uint64_t total_reads = reads.load();
  const double total_ops = static_cast<double>(total_reads + writes);
  std::printf("reads:  %llu queries in %.2fs -> %.0f queries/s\n",
              static_cast<unsigned long long>(total_reads), elapsed,
              static_cast<double>(total_reads) / elapsed);
  std::printf("        batch latency p50 %.3f ms, p99 %.3f ms (batch=%zu)\n",
              pspc::Percentile(all_batch_ms, 0.5),
              pspc::Percentile(all_batch_ms, 0.99), params.batch);
  std::printf("writes: %llu updates (%llu rejected), batch p50 %.3f ms, "
              "p99 %.3f ms -> achieved write share %.4f\n",
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(write_errors),
              pspc::Percentile(update_ms, 0.5),
              pspc::Percentile(update_ms, 0.99),
              total_ops == 0.0 ? 0.0
                               : static_cast<double>(writes) / total_ops);
  std::printf("%s\n", engine.Counters().ToString().c_str());

  if (params.trace_sample > 0) {
    const pspc::obs::TraceCollector& traces = engine.Traces();
    std::printf("traces: %llu sampled (1 in %lld), %llu above %.1f ms\n",
                static_cast<unsigned long long>(traces.TracesRecorded()),
                params.trace_sample,
                static_cast<unsigned long long>(traces.SlowTraces()),
                traces.SlowThresholdMicros() * 1e-3);
    if (traces.SlowTraces() > 0) {
      std::printf("slow traces: %s\n", traces.SlowTracesToJson().c_str());
    }
  }

  const auto current = index.MaterializeGraph();
  pspc::QueryBatch checks =
      pspc::MakeRandomQueries(n, 16, params.seed ^ 0x5eed);
  const std::vector<pspc::SpcResult> served = engine.SubmitBatch(checks).get();
  size_t mismatches = 0;
  for (size_t i = 0; i < checks.size(); ++i) {
    if (served[i] != OracleSpc(current, checks[i].first, checks[i].second)) {
      ++mismatches;
    }
  }
  std::printf("quiesce oracle: %zu/%zu exact%s\n", checks.size() - mismatches,
              checks.size(), mismatches == 0 ? "" : "  <-- CORRECTNESS BUG");
  const bool metrics_written = reporter.Finish();
  return mismatches == 0 && metrics_written ? 0 : 1;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 4) return Usage();
  pspc::Graph graph;
  if (!LoadGraphArg(argv[2], &graph)) return 1;

  pspc::BuildOptions options;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--hp-spc") {
      options.algorithm = pspc::Algorithm::kHpSpc;
    } else if (flag == "--order" && i + 1 < argc) {
      const std::string order = argv[++i];
      if (order == "degree") {
        options.ordering = pspc::OrderingScheme::kDegree;
      } else if (order == "sig") {
        options.ordering = pspc::OrderingScheme::kSignificantPath;
      } else if (order == "road") {
        options.ordering = pspc::OrderingScheme::kRoadNetwork;
      } else if (order == "hybrid") {
        options.ordering = pspc::OrderingScheme::kHybrid;
      } else {
        return Usage();
      }
    } else if (flag == "--threads" && i + 1 < argc) {
      // 0 = all cores (the BuildOptions default).
      long long threads = 0;
      if (!ParseIntFlag("--threads", argv[++i], 0, &threads)) return Usage();
      options.num_threads = static_cast<int>(threads);
    } else {
      return Usage();
    }
  }

  std::printf("graph: %u vertices, %llu edges\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));
  const pspc::BuildResult result = pspc::BuildIndex(graph, options);
  std::printf("built %s index under %s order: %zu entries in %.3fs "
              "(order %.3fs, landmarks %.3fs, construction %.3fs, "
              "finalize %.3fs)\n",
              ToString(options.algorithm).c_str(),
              ToString(options.ordering).c_str(),
              result.index.TotalEntries(), result.stats.TotalSeconds(),
              result.stats.ordering_seconds, result.stats.landmark_seconds,
              result.stats.construction_seconds,
              result.stats.finalize_seconds);
  if (const pspc::Status st = result.index.Save(argv[3]); !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s (%.1f MB)\n", argv[3],
              static_cast<double>(result.index.SizeBytes()) / 1048576.0);
  return 0;
}

template <typename GraphT>
int CmdQuery(int argc, char** argv) {
  if (argc < 6 || (argc - 4) % 2 != 0) return Usage();
  GraphT graph;
  pspc::SpcIndex index;
  if (!LoadCommandIndex(argv, &graph, &index)) return 1;
  // Validate every id up front: a malformed or out-of-range vertex id
  // is a usage error, not a per-pair answer.
  if (!ValidateVertexIds(argc, argv, 4, index.NumVertices())) {
    return 2;
  }
  const char* separator = index.Directed() ? " ->" : ",";
  for (int i = 4; i + 1 < argc; i += 2) {
    const auto s = static_cast<pspc::VertexId>(std::atoll(argv[i]));
    const auto t = static_cast<pspc::VertexId>(std::atoll(argv[i + 1]));
    const pspc::SpcResult r = index.Query(s, t);
    if (r.distance == pspc::kInfSpcDistance) {
      std::printf("SPC(%u%s %u): unreachable\n", s, separator, t);
    } else {
      std::printf("SPC(%u%s %u): distance %u, %llu shortest paths\n", s,
                  separator, t, r.distance,
                  static_cast<unsigned long long>(r.count));
    }
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  pspc::Graph graph;
  if (!LoadGraphArg(argv[2], &graph)) return 1;
  pspc::VertexId components = 0;
  pspc::ConnectedComponents(graph, &components);
  std::printf("vertices:   %u\n", graph.NumVertices());
  std::printf("edges:      %llu\n",
              static_cast<unsigned long long>(graph.NumEdges()));
  std::printf("avg degree: %.2f\n", graph.AverageDegree());
  std::printf("max degree: %u\n", graph.MaxDegree());
  std::printf("components: %u\n", components);
  std::printf("diameter:   >= %u (double sweep)\n",
              pspc::EstimateDiameter(graph, 4, 1));
  return 0;
}

// Profiles a built index: the classic label distributions and label
// bytes. With --update-stream, additionally replays the stream
// repair-only and reports the overlay before/after a fold.
int CmdIndexStats(int argc, char** argv) {
  if (argc < 4) return Usage();
  pspc::Graph graph;
  pspc::SpcIndex loaded;
  if (!LoadCommandIndex(argv, &graph, &loaded)) return 1;

  std::string stream_path;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-stream") == 0 && i + 1 < argc) {
      stream_path = argv[++i];
    } else {
      return Usage();
    }
  }

  std::printf("%s\n", pspc::ProfileIndex(loaded).ToString().c_str());
  if (stream_path.empty()) return 0;

  auto stream = pspc::LoadUpdateStream(stream_path);
  if (!stream.ok()) {
    std::fprintf(stderr, "failed to load updates %s: %s\n",
                 stream_path.c_str(), stream.status().ToString().c_str());
    return 1;
  }
  pspc::DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only until the Fold() below
  pspc::DynamicSpcIndex index(std::move(graph), std::move(loaded),
                              options);
  size_t applied = 0;
  for (const pspc::EdgeUpdate& up : stream.value()) {
    if (const pspc::Status st = index.Apply(up); !st.ok()) {
      std::fprintf(stderr, "update %zu failed: %s\n", applied,
                   st.ToString().c_str());
      return 1;
    }
    ++applied;
  }
  std::printf("\nreplayed %zu updates repair-only: overlay %zu vertices / "
              "%zu entries (staleness %.4f)\n",
              applied, index.Overlay().OverlaidVertices(),
              index.Overlay().OverlaidEntries(), index.StalenessRatio());

  const uint64_t pruned = index.Fold();
  std::printf("fold: overlay now %zu vertices / %zu entries, %llu stale "
              "entries pruned, base %zu entries\n",
              index.Overlay().OverlaidVertices(),
              index.Overlay().OverlaidEntries(),
              static_cast<unsigned long long>(pruned),
              index.BaseIndex().TotalEntries());
  std::printf("post-compaction label bytes: raw %zu\n",
              pspc::ProfileIndex(index.BaseIndex()).raw_bytes);
  return 0;
}

// Replays `stream` against `index`, `batch_size` updates per atomic
// coalesced ApplyBatch (1 = update by update), and prints the repair
// report. A failed update stops the replay with the prior ones (or
// prior batches) applied and returns false.
template <typename Index>
bool ReplayUpdates(Index& index, const pspc::EdgeUpdateBatch& stream,
                   size_t batch_size) {
  InstallStopHandlers();
  pspc::WallTimer timer;
  size_t applied = 0;
  if (batch_size <= 1) {
    for (const pspc::EdgeUpdate& up : stream) {
      if (g_interrupted != 0) break;
      const pspc::Status st = index.Apply(up);
      if (!st.ok()) {
        std::fprintf(stderr, "update %zu (%c %u %u) failed: %s\n", applied,
                     up.kind == pspc::EdgeUpdateKind::kInsert ? 'i' : 'd',
                     up.u, up.v, st.ToString().c_str());
        return false;
      }
      ++applied;
    }
  } else {
    const auto& updates = stream.Updates();
    for (size_t pos = 0; pos < updates.size() && g_interrupted == 0;
         pos += batch_size) {
      pspc::EdgeUpdateBatch chunk;
      const size_t end = std::min(pos + batch_size, updates.size());
      for (size_t i = pos; i < end; ++i) chunk.Add(updates[i]);
      if (const pspc::Status st = index.ApplyBatch(chunk); !st.ok()) {
        std::fprintf(stderr, "batch at update %zu failed: %s\n", pos,
                     st.ToString().c_str());
        return false;
      }
      applied = end;
    }
  }
  const double total = timer.ElapsedSeconds();
  if (g_interrupted != 0) {
    std::printf("interrupted after %zu updates; flushing metrics\n", applied);
  }

  std::printf("applied %zu updates in %.3fs (%.3f ms/update)\n%s\n", applied,
              total, applied == 0 ? 0.0 : total * 1e3 / applied,
              index.Stats().ToString().c_str());
  std::printf("staleness: %.4f (threshold %.4f), edges now %llu\n",
              index.StalenessRatio(), index.Options().rebuild_threshold,
              static_cast<unsigned long long>(index.NumEdges()));
  return true;
}

// Replays an update stream against the dynamic index: per-update
// repair latency, staleness growth, and optionally a rebuilt index
// written back to disk.
template <typename GraphT>
int CmdUpdate(int argc, char** argv) {
  if (argc < 4) return Usage();
  GraphT graph;
  pspc::SpcIndex loaded;
  if (!LoadCommandIndex(argv, &graph, &loaded)) return 1;

  std::string stream_path, save_path, metrics_json, metrics_prom;
  pspc::DynamicOptions options;
  size_t batch_size = 1;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--update-stream" && i + 1 < argc) {
      stream_path = argv[++i];
    } else if (flag == "--rebuild-threshold" && i + 1 < argc) {
      if (!ParseDoubleFlag("--rebuild-threshold", argv[++i], 0.0,
                           &options.rebuild_threshold)) {
        return Usage();
      }
    } else if (flag == "--batch-size" && i + 1 < argc) {
      long long value = 0;
      if (!ParseIntFlag("--batch-size", argv[++i], 1, &value)) return Usage();
      batch_size = static_cast<size_t>(value);
    } else if (flag == "--save" && i + 1 < argc && !loaded.Directed()) {
      // A directed index has no on-disk format: --save is a usage error.
      save_path = argv[++i];
    } else if (flag == "--metrics-json" && i + 1 < argc) {
      metrics_json = argv[++i];
    } else if (flag == "--metrics-prom" && i + 1 < argc) {
      metrics_prom = argv[++i];
    } else {
      return Usage();
    }
  }
  if (stream_path.empty()) return Usage();

  auto stream = pspc::LoadUpdateStream(stream_path);
  if (!stream.ok()) {
    std::fprintf(stderr, "failed to load updates %s: %s\n",
                 stream_path.c_str(), stream.status().ToString().c_str());
    return 1;
  }

  pspc::DynamicIndex<GraphT> index(std::move(graph), std::move(loaded),
                                   options);
  std::printf("replaying %zu updates against %u vertices / %llu edges "
              "(batch size %zu)\n",
              stream.value().Size(), index.NumVertices(),
              static_cast<unsigned long long>(index.NumEdges()), batch_size);
  if (!ReplayUpdates(index, stream.value(), batch_size)) return 1;

  if (!save_path.empty()) {
    index.Rebuild();  // re-construct from the current graph, then save
    if (const pspc::Status st = index.BaseIndex().Save(save_path); !st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("rebuilt + saved to %s (%.1f MB)\n", save_path.c_str(),
                static_cast<double>(index.BaseIndex().SizeBytes()) / 1048576.0);
  }
  MetricsReporter reporter(&pspc::obs::MetricsRegistry::Global(),
                           metrics_json, metrics_prom, 0);
  return reporter.Finish() ? 0 : 1;
}

// Drives a mixed read/write workload through the concurrent serving
// engine (see RunServeWorkload): the writer replays a stream when
// given, otherwise synthetic closure churn (close a live edge / reopen
// a closed one, which keeps the graph near its initial shape). Since
// one repair costs thousands of query times, write shares beyond a few
// percent leave the writer saturated and merely measure how well reads
// survive a continuously writing index — which is the point.
template <typename GraphT>
int CmdServe(int argc, char** argv) {
  if (argc < 4) return Usage();
  GraphT graph;
  pspc::SpcIndex loaded;
  if (!LoadCommandIndex(argv, &graph, &loaded)) return 1;

  ServeParams params;
  if (!ParseServeFlags(argc, argv, 4, &params)) return Usage();
  pspc::EdgeUpdateBatch stream;
  if (!LoadServeStream(params, &stream)) return 1;

  if (graph.NumVertices() == 0) {
    std::fprintf(stderr, "cannot serve an empty graph\n");
    return 1;
  }
  // Synthetic churn pools (shared with bench_serving).
  pspc::ClosureChurn churn(graph);
  pspc::DynamicIndex<GraphT> index(std::move(graph), std::move(loaded));
  return RunServeWorkload(index, params, std::move(stream), churn);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const bool directed = DirectedMode(argc, argv);
  if (std::strcmp(argv[1], "build") == 0) return CmdBuild(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) {
    return directed ? CmdQuery<pspc::DiGraph>(argc, argv)
                    : CmdQuery<pspc::Graph>(argc, argv);
  }
  if (std::strcmp(argv[1], "stats") == 0) return CmdStats(argc, argv);
  if (std::strcmp(argv[1], "index-stats") == 0) {
    return CmdIndexStats(argc, argv);
  }
  if (std::strcmp(argv[1], "update") == 0) {
    return directed ? CmdUpdate<pspc::DiGraph>(argc, argv)
                    : CmdUpdate<pspc::Graph>(argc, argv);
  }
  if (std::strcmp(argv[1], "serve") == 0) {
    return directed ? CmdServe<pspc::DiGraph>(argc, argv)
                    : CmdServe<pspc::Graph>(argc, argv);
  }
  return Usage();
}
