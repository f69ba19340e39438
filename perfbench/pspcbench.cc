// Benchmark program for the PSPC library. perfbench/run.py runs its
// subcommands as separate processes, so that each process's peak memory
// is its own:
//
//   info   the build and machine facts a result has to be read with
//   gen    seeded inputs: graph file, read keys
//   build  graph file -> ComputeOrder -> BuildIndexWithOrder, timed;
//          single-thread reads on the index; SpcIndex::Save
//   serve  graph + index files -> DynamicSpcIndex -> ServingEngine;
//          closed-loop reads
//
// Every subcommand does a fixed amount of work given its flags and
// prints one JSON object of numbers as its last stdout line. With
// --trace it also records spans around each call it makes into the
// library and writes them to <dir>/spans-<command>.jsonl.
// perfbench/DESIGN.md explains the workloads and every number.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/percentile.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/build_options.h"
#include "src/core/build_stats.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/label/label_merge_simd.h"
#include "src/label/packed_label.h"
#include "src/label/query_engine.h"
#include "src/label/spc_index.h"
#include "src/serve/serving_engine.h"

namespace {

using pspc::VertexId;
using Clock = std::chrono::steady_clock;
using Pairs = std::vector<std::pair<VertexId, VertexId>>;

constexpr size_t kBatch = 64;  // pairs per read request

// The work every process does whatever the workload; run.py passes only
// what differs between workloads.
constexpr uint64_t kLoads = 15;         // graph-file loads in `build`
constexpr uint64_t kWarmupBuilds = 1;   // untimed builds before the timed
constexpr uint64_t kReadWarmup = 200;   // untimed single-thread requests
constexpr uint64_t kSetups = 5;         // deployments in `serve`
constexpr uint64_t kWarmupRequests = 2000;  // untimed closed-loop requests
static_assert(kWarmupRequests >= kReadWarmup, "gen's key margin covers both");
constexpr uint64_t kChecks = 64;        // BFS-oracle checks per process
constexpr uint64_t kTraceEvery = 16;    // traced: 1 read request in 16

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pspcbench: %s\n", message.c_str());
  std::exit(2);
}

void Check(const pspc::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Check(pspc::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

double Quantile(std::vector<double> values, double p) {
  return pspc::Percentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set of this process, in MB (2^20 bytes).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// CPUs this process may run on; their count is what `nproc` prints.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

int Nproc() { return std::max<int>(1, static_cast<int>(AllowedCpus().size())); }

// Restricts the calling thread to `cpus`. Threads it starts afterwards
// inherit the restriction.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) Die("sched_setaffinity");
}

// "--key value" and bare "--flag" arguments.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  uint64_t U64(const std::string& key) const { return std::stoull(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// The flat {"name": number} object a subcommand reports.
class Report {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Print() const {
    std::string out = "{";
    for (const auto& [key, value] : values_) {
      if (out.size() > 1) out += ", ";
      char number[64];
      std::snprintf(number, sizeof(number), "%.9g", value);
      out += "\"" + key + "\": " + number;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
};

// ------------------------------------------------------------- tracing
//
// One Tracer per thread. Spans nest through a stack, so a span's parent
// is the innermost span open on the same thread when it began. A null
// Tracer* turns every ScopedSpan into a no-op: the untraced run.

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the same tracer's spans; -1 for a root
  uint64_t request;
};

class Tracer {
 public:
  int64_t Begin(const char* name, uint64_t request) {
    const auto id = static_cast<int64_t>(spans_.size());
    spans_.push_back(
        {name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(id);
    return id;
  }
  void End(int64_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& Spans() const { return spans_; }

  // Per span: its duration minus the time its child spans cover. The
  // children of a span run on its thread one after another, so they
  // never overlap and their durations add.
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = Seconds(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -=
            Seconds(span.end_ns - span.start_ns);
      }
    }
    return self;
  }

  // Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (name != span.name) continue;
      out.push_back(Seconds(span.end_ns - span.start_ns));
    }
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Tracer for request `request` of a read loop, 1 in kTraceEvery.
Tracer* Sampled(Tracer* tracer, uint64_t request) {
  return request % kTraceEvery == 0 ? tracer : nullptr;
}

// Writes every tracer's spans, with their self times, as JSON lines.
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  for (size_t thread = 0; thread < tracers.size(); ++thread) {
    const std::vector<SpanRecord>& spans = tracers[thread]->Spans();
    const std::vector<double> self = tracers[thread]->SelfSeconds();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      out << "{\"thread\": " << thread << ", \"id\": " << i
          << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
          << "\", \"request\": " << span.request
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << ", \"self_s\": " << self[i]
          << "}\n";
    }
  }
  if (!out) Die("cannot write " + path);
}

// -------------------------------------------------------------- inputs

// Read keys are raw little-endian uint32 (s, t) pairs.
void SavePairs(const Pairs& pairs, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& [s, t] : pairs) {
    const uint32_t pair[2] = {s, t};
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  }
  if (!out) Die("cannot write " + path);
}

Pairs LoadPairs(const std::string& path, VertexId num_vertices) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot open " + path);
  Pairs pairs;
  uint32_t pair[2];
  while (in.read(reinterpret_cast<char*>(pair), sizeof(pair))) {
    if (pair[0] >= num_vertices || pair[1] >= num_vertices) {
      Die("read key out of range in " + path);
    }
    pairs.emplace_back(pair[0], pair[1]);
  }
  if (pairs.empty()) Die("no read keys in " + path);
  return pairs;
}

// Request `request` of a run: the next kBatch keys, wrapping around.
pspc::QueryBatch KeyBatch(const Pairs& keys, uint64_t request) {
  pspc::QueryBatch batch(kBatch);
  for (size_t j = 0; j < kBatch; ++j) {
    batch[j] = keys[(request * kBatch + j) % keys.size()];
  }
  return batch;
}

// gen: writes <dir>/graph.txt and <dir>/keys.bin for one seed: the FB
// shape (the "FB" social graph of datasets.cc) and uniform read keys for
// `key-batches` timed requests and every untimed one before them, so no
// key repeats within a run. Every id is drawn from the graph as
// LoadEdgeList reads it back, because the edge-list file does not carry
// trailing isolated vertices.
int Gen(const Args& args) {
  const std::string dir = args.Str("dir");
  pspc::Rng rng(args.U64("seed"));
  const std::string graph_path = dir + "/graph.txt";
  Check(pspc::SaveEdgeList(pspc::GenerateBarabasiAlbert(8192, 13, rng.Next()),
                           graph_path),
        "SaveEdgeList");
  const pspc::Graph graph =
      Check(pspc::LoadEdgeList(graph_path), "LoadEdgeList");
  const VertexId n = graph.NumVertices();

  Pairs keys(kBatch * (args.U64("key-batches") + kWarmupRequests));
  for (auto& [s, t] : keys) {
    s = static_cast<VertexId>(rng.NextBounded(n));
    t = static_cast<VertexId>(rng.NextBounded(n));
  }
  SavePairs(keys, dir + "/keys.bin");

  Report report;
  report.Set("vertices", n);
  report.Set("edges", static_cast<double>(graph.NumEdges()));
  report.Print();
  return 0;
}

// BFS-oracle spot checks of `answer` on kChecks seeded pairs.
template <typename Answer>
size_t OracleMismatches(const pspc::Graph& graph, Tracer* tracer,
                        const Answer& answer) {
  size_t mismatches = 0;
  for (const auto& [s, t] :
       pspc::MakeRandomQueries(graph.NumVertices(), kChecks, 0x0c1e)) {
    pspc::SpcResult expected;
    {
      ScopedSpan span(tracer, "baseline.BfsSpcPair");
      expected = pspc::BfsSpcPair(graph, s, t);
    }
    if (answer(s, t) != expected) ++mismatches;
  }
  return mismatches;
}

// --------------------------------------------------------------- build

// Single-thread reads on an index: requests [first, end), 64 pairs
// each, as the serving workloads send them, each timed whole. Requests
// below `warmup` are not timed.
void RawReads(const pspc::SpcIndex& index, const Pairs& keys, uint64_t first,
              uint64_t end, uint64_t warmup, Tracer* tr,
              std::vector<double>* latency_us) {
  uint64_t checksum = 0;
  for (uint64_t r = first; r < end; ++r) {
    const pspc::QueryBatch batch = KeyBatch(keys, r);
    ScopedSpan span(Sampled(tr, r), "label.SpcIndex::Query", r);
    const int64_t start = NowNs();
    for (const auto& [s, t] : batch) checksum += index.Query(s, t).count;
    if (r >= warmup) latency_us->push_back(Micros(NowNs() - start));
  }
  // Makes the answers observable, so no query can be optimized away.
  if (checksum == 1) std::fprintf(stderr, "checksum 1\n");
}

// Label-merge probe on the read keys, single thread: SpcIndex::Query on
// the raw labels against MergeLabelSources on PackedLabelMap blocks
// (paper Fig. 7), and the label bytes a query reads in each format.
void MergeProbe(const pspc::SpcIndex& index, const Pairs& keys,
                Report* report) {
  const pspc::PackedLabelMap packed =
      pspc::PackedLabelMap::Encode(index.LabelMap());
  const size_t count = std::min<size_t>(keys.size(), 8192);
  size_t raw_bytes = 0, packed_bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    const auto [s, t] = keys[i];
    raw_bytes += index.Labels(s).size_bytes() + index.Labels(t).size_bytes();
    packed_bytes += packed.Block(s).SizeBytes() + packed.Block(t).SizeBytes();
  }
  std::vector<pspc::SpcResult> raw(count), from_packed(count);
  int64_t start = NowNs();
  for (size_t i = 0; i < count; ++i) {
    raw[i] = index.Query(keys[i].first, keys[i].second);
  }
  const int64_t raw_ns = NowNs() - start;
  start = NowNs();
  for (size_t i = 0; i < count; ++i) {
    from_packed[i] = pspc::MergeLabelSources(
        pspc::LabelSource::Packed(packed.Block(keys[i].first)),
        pspc::LabelSource::Packed(packed.Block(keys[i].second)));
  }
  const int64_t packed_ns = NowNs() - start;
  if (raw != from_packed) Die("packed and raw label merges disagree");
  const auto per_query = [count](double total) {
    return total / static_cast<double>(count);
  };
  report->Set("label.merge_raw_ns", per_query(static_cast<double>(raw_ns)));
  report->Set("label.merge_packed_ns",
              per_query(static_cast<double>(packed_ns)));
  report->Set("label.bytes_per_query_raw",
              per_query(static_cast<double>(raw_bytes)));
  report->Set("label.bytes_per_query_packed",
              per_query(static_cast<double>(packed_bytes)));
}

// build: loads the graph file kLoads times (the set-up), builds the
// index kWarmupBuilds + `builds` times with the default BuildOptions on
// nproc threads, timing the last `builds`, reads `read-requests` from
// the new indexes on one thread, and saves the last index to
// <dir>/index.idx.
int Build(const Args& args) {
  const std::string dir = args.Str("dir");
  const bool trace = args.Has("trace");
  Tracer tracer;
  Tracer* tr = trace ? &tracer : nullptr;
  Report report;

  pspc::BuildOptions options;  // PSPC, PULL, cost-aware, 100 landmarks
  options.num_threads = Nproc();
  const uint64_t builds = args.U64("builds");
  // The loads are spread evenly over the process, before and between
  // the builds, and so are the reads (every build makes the same
  // index): the machine's speed drifts within seconds, and samples
  // taken together in one second would all see the same moment of it.
  // Load i falls in round i * rounds / kLoads, so round 0 has load 0.
  const uint64_t rounds = kWarmupBuilds + builds + 1;
  const auto first_load = [rounds](uint64_t round) {
    return (round * kLoads + rounds - 1) / rounds;
  };
  std::vector<double> load_s;
  pspc::Graph graph;
  const auto load_round = [&](uint64_t round) {
    for (uint64_t i = first_load(round); i < first_load(round + 1); ++i) {
      ScopedSpan span(tr, "graph.LoadEdgeList", i);
      const int64_t start = NowNs();
      graph = Check(pspc::LoadEdgeList(dir + "/graph.txt"), "LoadEdgeList");
      load_s.push_back(Seconds(NowNs() - start));
    }
  };

  load_round(0);
  const Pairs keys = LoadPairs(dir + "/keys.bin", graph.NumVertices());
  const uint64_t read_requests = args.U64("read-requests");
  const uint64_t reads =
      read_requests == 0 ? 0 : kReadWarmup + read_requests;
  std::vector<double> read_us;
  std::vector<double> build_s, order_s, ll_s, lc_s, finalize_s;
  pspc::BuildResult built;
  for (uint64_t i = 0; i < kWarmupBuilds + builds; ++i) {
    // The previous index goes first: a build never runs beside it in
    // the program, so it must not count in this process's peak memory.
    built = {};
    {
      ScopedSpan span(tr, "build", i);
      const int64_t start = NowNs();
      pspc::VertexOrder order;
      {
        ScopedSpan order_span(tr, "order.ComputeOrder", i);
        order = pspc::ComputeOrder(graph, options.ordering,
                                   options.hybrid_delta);
      }
      const int64_t ordered = NowNs();
      {
        ScopedSpan build_span(tr, "core.BuildIndexWithOrder", i);
        built = pspc::BuildIndexWithOrder(graph, order, options);
      }
      const int64_t end = NowNs();
      if (i >= kWarmupBuilds) {
        build_s.push_back(Seconds(end - start));
        order_s.push_back(Seconds(ordered - start));
        ll_s.push_back(built.stats.landmark_seconds);
        lc_s.push_back(built.stats.construction_seconds);
        // What BuildIndexWithOrder spends outside LL and LC: sorting
        // and flattening the label lists into the SpcIndex arrays.
        finalize_s.push_back(Seconds(end - ordered) -
                             built.stats.landmark_seconds -
                             built.stats.construction_seconds);
      }
    }
    RawReads(built.index, keys, i * reads / (rounds - 1),
             (i + 1) * reads / (rounds - 1), kReadWarmup, tr, &read_us);
    load_round(i + 1);
  }
  const pspc::SpcIndex& index = built.index;
  const size_t mismatches = OracleMismatches(
      graph, tr, [&](VertexId s, VertexId t) { return index.Query(s, t); });
  {
    ScopedSpan span(tr, "label.SpcIndex::Save");
    Check(index.Save(dir + "/index.idx"), "SpcIndex::Save");
  }

  report.Set("setup_s", Median(load_s));
  report.Set("build_s", Median(build_s));
  report.Set("index_mb",
             static_cast<double>(index.SizeBytes()) / (1024.0 * 1024.0));
  report.Set("peak_rss_mb", PeakRssMb());
  if (!read_us.empty()) {
    report.Set("read_p50_us", Quantile(read_us, 0.5));
    report.Set("read_p90_us", Quantile(read_us, 0.9));
    report.Set("read_p99_us", Quantile(read_us, 0.99));
  }
  report.Set("attempted",
             static_cast<double>(kWarmupBuilds + builds + reads + kChecks));
  report.Set("failed", static_cast<double>(mismatches));

  if (trace) {
    const pspc::BuildStats& stats = built.stats;
    report.Set("graph.load_s", Median(tracer.Durations("graph.LoadEdgeList")));
    report.Set("order.s", Median(order_s));
    report.Set("core.ll_s", Median(ll_s));
    report.Set("core.lc_s", Median(lc_s));
    report.Set("label.finalize_s", Median(finalize_s));
    report.Set("core.iterations", static_cast<double>(stats.num_iterations));
    report.Set("core.candidates",
               static_cast<double>(stats.candidates_after_merge));
    report.Set("core.pruned_landmark",
               static_cast<double>(stats.pruned_by_landmark));
    report.Set("core.pruned_query",
               static_cast<double>(stats.pruned_by_query));
    report.Set("core.labels", static_cast<double>(stats.labels_inserted));
    report.Set("core.yield",
               static_cast<double>(stats.labels_inserted) /
                   static_cast<double>(
                       std::max<size_t>(1, stats.candidates_after_merge)));
    report.Set("label.entries", static_cast<double>(index.TotalEntries()));
    MergeProbe(index, keys, &report);
    // Paper Fig. 8: LC on one thread against LC on every thread used.
    pspc::BuildOptions single = options;
    single.num_threads = 1;
    double lc_single = 0.0;
    {
      ScopedSpan span(tr, "core.BuildIndexWithOrder.single_thread");
      lc_single = pspc::BuildIndexWithOrder(
                      graph,
                      pspc::ComputeOrder(graph, single.ordering,
                                         single.hybrid_delta),
                      single)
                      .stats.construction_seconds;
    }
    report.Set("core.speedup", lc_single / Median(lc_s));
    WriteSpans(dir + "/spans-build.jsonl", {&tracer});
  }
  report.Print();
  return mismatches == 0 ? 0 : 1;
}

// --------------------------------------------------------------- serve

struct ReadLog {
  std::vector<double> latency_us;  // per timed request
  // A sample of the served answers, for the BFS oracle.
  std::vector<std::pair<std::pair<VertexId, VertexId>, pspc::SpcResult>>
      served;
  uint64_t requests = 0;
  double seconds = 0.0;
};

// One client in a closed loop: the next request goes out when the
// previous one has been answered. The first `warmup` requests are not
// timed. The client polls for its answer instead of sleeping on it, so
// that a request's time ends when the answer is ready, not when the
// client's own CPU has been woken again.
ReadLog ClosedLoop(pspc::ServingEngine* engine, const Pairs& keys,
                   uint64_t requests, uint64_t warmup, Tracer* tr) {
  ReadLog log;
  log.latency_us.reserve(requests);
  const int64_t begin = NowNs();
  for (uint64_t r = 0; r < warmup + requests; ++r) {
    const pspc::QueryBatch batch = KeyBatch(keys, r);
    ScopedSpan span(Sampled(tr, r), "serve.SubmitBatch", r);
    const int64_t start = NowNs();
    std::future<std::vector<pspc::SpcResult>> pending =
        engine->SubmitBatch(batch);
    while (pending.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
    }
    const std::vector<pspc::SpcResult> answers = pending.get();
    if (r >= warmup) log.latency_us.push_back(Micros(NowNs() - start));
    if (r % 64 == 0) log.served.push_back({batch[0], answers[0]});
  }
  log.seconds = Seconds(NowNs() - begin);
  log.requests = warmup + requests;
  return log;
}

// serve: deploys the saved index kSetups times (the set-up; all but the
// last deployment are torn down again), then sends kWarmupRequests
// untimed and `requests` timed closed-loop reads from one client thread.
int Serve(const Args& args) {
  const std::string dir = args.Str("dir");
  const bool trace = args.Has("trace");
  Tracer tracer;
  Tracer* tr = trace ? &tracer : nullptr;
  Report report;

  // Thread budget: nproc threads in all, the client and nproc - 1
  // serving workers. With a CPU for every thread, each thread is held to
  // its own CPU, so that no two of them ever queue for one.
  const std::vector<int> cpus = AllowedCpus();
  const int nproc = Nproc();
  const int workers = std::max(1, nproc - 1);
  const bool pinned = nproc > 1;
  const std::vector<int> worker_cpus(cpus.begin() + (pinned ? 1 : 0),
                                     cpus.end());

  // No update is applied, so no repair thread ever starts; one keeps
  // the budget explicit.
  pspc::DynamicOptions dynamic_options;
  dynamic_options.num_threads = 1;
  pspc::ServingOptions serving_options;
  serving_options.num_workers = workers;
  if (trace) {
    serving_options.trace_sample_every_n = kTraceEvery * kBatch;
    serving_options.slow_trace_us = 0.0;  // keep every sampled trace
    serving_options.slow_trace_capacity = 1 << 20;
  }

  std::vector<double> setup_s;
  std::unique_ptr<pspc::DynamicSpcIndex> dynamic;
  std::unique_ptr<pspc::ServingEngine> engine;
  pspc::Graph graph;
  for (uint64_t i = 0; i < kSetups; ++i) {
    engine.reset();  // before the index it serves
    dynamic.reset();
    ScopedSpan span(tr, "setup", i);
    const int64_t start = NowNs();
    {
      ScopedSpan s(tr, "graph.LoadEdgeList", i);
      graph = Check(pspc::LoadEdgeList(dir + "/graph.txt"), "LoadEdgeList");
    }
    pspc::SpcIndex index;
    {
      ScopedSpan s(tr, "label.SpcIndex::Load", i);
      index =
          Check(pspc::SpcIndex::Load(dir + "/index.idx"), "SpcIndex::Load");
    }
    if (index.NumVertices() != graph.NumVertices()) {
      Die("the index and the graph disagree on the vertex count");
    }
    {
      ScopedSpan s(tr, "dynamic.DynamicSpcIndex", i);
      dynamic = std::make_unique<pspc::DynamicSpcIndex>(
          graph, std::move(index), dynamic_options);
    }
    {
      ScopedSpan s(tr, "serve.ServingEngine", i);
      if (pinned) PinTo(worker_cpus);  // the workers inherit it
      engine = std::make_unique<pspc::ServingEngine>(dynamic.get(),
                                                     serving_options);
      if (pinned) PinTo(cpus);
    }
    setup_s.push_back(Seconds(NowNs() - start));
  }
  if (pinned) PinTo({cpus[0]});
  const Pairs keys = LoadPairs(dir + "/keys.bin", graph.NumVertices());

  const ReadLog reads = ClosedLoop(engine.get(), keys, args.U64("requests"),
                                   kWarmupRequests, tr);
  // Served answers, against the graph they were served on.
  size_t mismatches = 0;
  for (const auto& [pair, answer] : reads.served) {
    ScopedSpan span(tr, "baseline.BfsSpcPair");
    if (pspc::BfsSpcPair(graph, pair.first, pair.second) != answer) {
      ++mismatches;
    }
  }
  engine->Drain();
  const pspc::ServingCounters counters = engine->Counters();
  mismatches += OracleMismatches(
      graph, tr,
      [&](VertexId s, VertexId t) { return engine->Submit(s, t).get(); });
  engine->Stop();

  report.Set("setup_s", Median(setup_s));
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("read_p50_us", Quantile(reads.latency_us, 0.5));
  report.Set("read_p90_us", Quantile(reads.latency_us, 0.9));
  report.Set("read_p99_us", Quantile(reads.latency_us, 0.99));
  report.Set("attempted", static_cast<double>(reads.requests + kChecks));
  report.Set("failed", static_cast<double>(mismatches));

  if (trace) {
    report.Set("graph.load_s", Median(tracer.Durations("graph.LoadEdgeList")));
    report.Set("label.load_s",
               Median(tracer.Durations("label.SpcIndex::Load")));
    report.Set("dynamic.wrap_s",
               Median(tracer.Durations("dynamic.DynamicSpcIndex")));
    report.Set("serve.start_s",
               Median(tracer.Durations("serve.ServingEngine")));
    std::vector<double> queue_wait_us, merge_us;
    for (const pspc::obs::QueryTrace& t : engine->Traces().SlowTraceLog()) {
      queue_wait_us.push_back(t.QueueWaitMicros());
      merge_us.push_back(t.MergeMicros());
    }
    report.Set("serve.queue_wait_p50_us", Quantile(queue_wait_us, 0.5));
    report.Set("serve.merge_p50_us", Quantile(merge_us, 0.5));
    const double lookups =
        static_cast<double>(counters.cache_hits + counters.cache_misses);
    report.Set("serve.cache_hit_ratio",
               static_cast<double>(counters.cache_hits) /
                   std::max(1.0, lookups));
    report.Set("serve.micro_batch_mean",
               static_cast<double>(counters.queries_served) /
                   static_cast<double>(
                       std::max<uint64_t>(1, counters.micro_batches)));
    report.Set("serve.pairs_per_s",
               static_cast<double>(reads.requests * kBatch) / reads.seconds);
    WriteSpans(dir + "/spans-serve.jsonl", {&tracer});
  }
  report.Print();
  return mismatches == 0 ? 0 : 1;
}

// info: the build and machine facts a result has to be read with.
int Info() {
  std::printf(
      "{\"nproc\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"merge_kernel\": \"%s\"}\n",
      Nproc(), __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      pspc::MergeKernelName(pspc::ActiveMergeKernel()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pspcbench info|gen|build|serve --dir DIR ...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "info") return Info();
  if (command == "gen") return Gen(args);
  if (command == "build") return Build(args);
  if (command == "serve") return Serve(args);
  Die("unknown command " + command);
}
