// Reproduces the paper's Table III and Figs. 5-13, plus an ablation of
// the §IV reductions, on the dataset analogues of src/graph/datasets.h,
// one dataset at a time in one process:
//
//   ./bench_paper [section...] [dataset...] [--json <path>]
//
// Sections: table3 fig5 ... fig13 reductions; datasets: Table III codes.
// Naming none of either runs all. PSPC_BENCH_SCALE_DIVISOR shrinks every
// dataset; `--json` writes every printed row (name, seconds, counters).
// Each timed build follows an untimed warmup build that page-faults the
// allocator arena. Each (dataset, configuration) is built once for all
// sections that read it (Figs. 5, 6, 7, 9 and 13 share one PSPC+ build),
// and its index is freed once no later section queries it. The exit code
// is non-zero if a build breaks a paper invariant: one PSPC index for any
// thread count (Exp 2), equal to HP-SPC's, and unchanged by the landmark
// filter (§III-H, Fig. 10a); without landmarks, PSPC+ must also split
// its entries into canonical and non-canonical ones as HP-SPC does.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/parallel.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/label/query_engine.h"
#include "src/reduce/reduced_index.h"

namespace {

using pspc::BuildOptions;
using pspc::Graph;
using pspc::QueryBatch;
using pspc::VertexId;
using pspc::WallTimer;
using Fields = std::vector<std::pair<std::string, double>>;

/// A run's rows (printed as they come) and invariant checks.
struct Report {
  pspc::benchjson::Array rows;
  size_t num_rows = 0;
  size_t num_checks = 0;
  size_t num_failures = 0;

  /// Row `<figure>/<dataset>[/<variant>]`.
  void Add(const std::string& figure, const std::string& code,
           const std::string& variant, double seconds, const Fields& fields) {
    const std::string name =
        figure + "/" + code + (variant.empty() ? "" : "/" + variant);
    std::printf("%-44s %10.4f s", name.c_str(), seconds);
    pspc::benchjson::Object row;
    row.Add("name", name).Add("seconds", seconds);
    for (const auto& [key, value] : fields) {
      std::printf("  %s=%.10g", key.c_str(), value);
      row.Add(key, value);
    }
    std::printf("\n");
    rows.Add(row);
    ++num_rows;
  }

  void Check(const std::string& code, const char* claim, bool held) {
    ++num_checks;
    if (held) return;
    std::fprintf(stderr, "invariant broken on %s: %s\n", code.c_str(), claim);
    ++num_failures;
  }
};

// The paper's three systems. Default options are PSPC+: PSPC on all
// cores under degree order, cost-aware schedule and 100 landmarks; the
// ablations below change one field of it.
const BuildOptions kHpSpc{.algorithm = pspc::Algorithm::kHpSpc,
                          .num_threads = 1};
const BuildOptions kPspc{.num_threads = 1};
const BuildOptions kPspcPlus{};

/// Names a configuration by what changes the build: thread count 0 means
/// all cores.
std::string Key(const BuildOptions& o) {
  const int threads = o.num_threads <= 0 ? pspc::MaxThreads() : o.num_threads;
  return ToString(o.algorithm) + "/" + ToString(o.ordering) + "/" +
         std::to_string(o.hybrid_delta) + "/" + ToString(o.schedule) +
         "/t" + std::to_string(threads) + "/l" +
         std::to_string(o.num_landmarks);
}

/// The paper uses 1e5 random queries; scaled with the dataset divisor.
size_t QueryWorkloadSize() { return 100000 / pspc::BenchScaleDivisor(); }

std::vector<int> ThreadSweep() {
  std::vector<int> sweep{1, 2, 4};
  const int max_threads = pspc::MaxThreads();
  for (int t = 8; t < max_threads; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);
  return sweep;
}

double MB(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// A build's counters and time, and its index while a section queries it.
struct Built {
  pspc::BuildStats stats;
  double seconds = 0.0;
  std::optional<pspc::SpcIndex> index;
};

/// One dataset's graph and builds, alive while its sections run.
struct Dataset {
  const pspc::DatasetSpec& spec;
  const std::vector<bool>& selected;
  Graph graph;
  double generate_seconds = 0.0;
  size_t section = 0;
  bool systems_checked = false;
  std::map<std::string, Built> builds = {};

  /// The timed build of `options`, made once per configuration.
  Built& Build(const BuildOptions& options) {
    const std::string key = Key(options);
    if (auto it = builds.find(key); it != builds.end()) return it->second;
    // The warmup only touches memory; the sequential significant-path
    // order would double that variant's cost, so degree stands in.
    BuildOptions warmup = options;
    if (warmup.ordering == pspc::OrderingScheme::kSignificantPath) {
      warmup.ordering = pspc::OrderingScheme::kDegree;
    }
    pspc::BuildIndex(graph, warmup);
    WallTimer timer;
    pspc::BuildResult result = pspc::BuildIndex(graph, options);
    Built& built = builds[key];
    built.seconds = timer.ElapsedSeconds();
    built.stats = std::move(result.stats);
    built.index = std::move(result.index);
    return built;
  }

  /// Frees every index no selected section from the running one on
  /// queries.
  void Release();
};

void Table3(Dataset& d, Report& r) {
  r.Add("table3", d.spec.code, "", d.generate_seconds,
        {{"V", d.graph.NumVertices()},
         {"E", static_cast<double>(d.graph.NumEdges())},
         {"davg", d.graph.AverageDegree()}});
}

/// The three systems Figs. 5-7 compare; each answers the Fig. 7 query
/// batch on the threads it builds with.
const std::pair<const char*, BuildOptions> kSystems[] = {
    {"HP-SPC", kHpSpc}, {"PSPC", kPspc}, {"PSPC+", kPspcPlus}};

/// Exp 2 on the three systems, once per dataset: one PSPC index for any
/// thread count, equal to HP-SPC's.
void CheckSystems(Dataset& d, Report& r) {
  if (d.systems_checked) return;
  d.systems_checked = true;
  const pspc::SpcIndex& hp = d.Build(kHpSpc).index.value();
  const pspc::SpcIndex& one = d.Build(kPspc).index.value();
  const pspc::SpcIndex& all = d.Build(kPspcPlus).index.value();
  r.Check(d.spec.code, "PSPC index on 1 thread == on all threads", one == all);
  r.Check(d.spec.code, "PSPC index == HP-SPC index", one == hp);
}

// Fig. 5 (Exp 1): indexing time, ordering included.
void Fig5(Dataset& d, Report& r) {
  CheckSystems(d, r);
  for (const auto& [name, options] : kSystems) {
    const Built& b = d.Build(options);
    r.Add("fig5/indexing_time", d.spec.code, name, b.seconds,
          {{"entries", static_cast<double>(b.stats.total_entries)},
           {"iterations", static_cast<double>(b.stats.num_iterations)},
           {"canonical", static_cast<double>(b.stats.canonical_labels)},
           {"non_canonical",
            static_cast<double>(b.stats.non_canonical_labels)}});
  }
}

// Fig. 6 (Exp 2): index size.
void Fig6(Dataset& d, Report& r) {
  CheckSystems(d, r);
  for (const auto& [name, options] : kSystems) {
    const Built& b = d.Build(options);
    const pspc::SpcIndex& index = b.index.value();
    r.Add("fig6/index_size", d.spec.code, name, b.seconds,
          {{"size_MB", MB(index.SizeBytes())},
           {"entries", static_cast<double>(index.TotalEntries())},
           {"avg_label", index.AverageLabelSize()}});
  }
}

// Fig. 7 (Exp 3): average query time over one random workload.
void Fig7(Dataset& d, Report& r) {
  CheckSystems(d, r);
  const QueryBatch batch = pspc::MakeRandomQueries(
      d.graph.NumVertices(), QueryWorkloadSize(), /*seed=*/0xF167);
  for (const auto& [name, options] : kSystems) {
    const pspc::SpcIndex& index = d.Build(options).index.value();
    WallTimer timer;
    if (options.num_threads == 1) {
      pspc::RunQueries(index, batch);
    } else {
      pspc::RunQueriesParallel(index, batch, options.num_threads);
    }
    const double seconds = timer.ElapsedSeconds();
    const double queries = static_cast<double>(batch.size());
    r.Add("fig7/query_time", d.spec.code, name, seconds,
          {{"avg_query_us", seconds * 1e6 / queries}, {"queries", queries}});
  }
}

// Fig. 8 (Exp 4): PSPC+ indexing speedup over its 1-thread build.
void Fig8(Dataset& d, Report& r) {
  if (!d.spec.in_sweep_set) return;
  const double baseline = d.Build(kPspc).seconds;
  for (const int threads : ThreadSweep()) {
    const Built& b = d.Build({.num_threads = threads});
    r.Add("fig8/indexing_speedup", d.spec.code,
          "threads:" + std::to_string(threads), b.seconds,
          {{"speedup", baseline / b.seconds}, {"threads", threads}});
    d.Release();
  }
}

// Fig. 9 (Exp 4): query-batch speedup over a sequential run.
void Fig9(Dataset& d, Report& r) {
  if (!d.spec.in_sweep_set) return;
  const pspc::SpcIndex& index = d.Build(kPspcPlus).index.value();
  const QueryBatch batch = pspc::MakeRandomQueries(
      d.graph.NumVertices(), QueryWorkloadSize(), /*seed=*/0xF19);
  pspc::RunQueries(index, batch);  // untimed warmup
  WallTimer baseline_timer;
  pspc::RunQueries(index, batch);
  const double baseline = baseline_timer.ElapsedSeconds();
  for (const int threads : ThreadSweep()) {
    WallTimer timer;
    pspc::RunQueriesParallel(index, batch, threads);
    const double seconds = timer.ElapsedSeconds();
    r.Add("fig9/query_speedup", d.spec.code,
          "threads:" + std::to_string(threads), seconds,
          {{"speedup", baseline / seconds}, {"threads", threads}});
  }
}

// Fig. 10 (Exp 5): ablation of (a) landmark labeling, (b) the schedule
// plan and (c) the node order, ordering time included.
void Fig10(Dataset& d, Report& r) {
  if (!d.spec.in_sweep_set) return;
  const BuildOptions nll{.num_landmarks = 0};
  r.Check(d.spec.code, "PSPC+ index with landmark filter == without",
          d.Build(kPspcPlus).index.value() == d.Build(nll).index.value());
  const pspc::BuildStats& split = d.Build(nll).stats;
  const pspc::BuildStats& hp = d.Build(kHpSpc).stats;
  r.Check(d.spec.code,
          "PSPC+ without landmarks splits entries as HP-SPC does",
          split.canonical_labels == hp.canonical_labels &&
              split.non_canonical_labels == hp.non_canonical_labels);
  using enum pspc::ScheduleKind;
  using enum pspc::OrderingScheme;
  const std::tuple<const char*, const char*, BuildOptions> variants[] = {
      {"fig10a/landmark", "LL", kPspcPlus},
      {"fig10a/landmark", "NLL", nll},
      {"fig10b/schedule", "static", {.schedule = kStatic}},
      {"fig10b/schedule", "dynamic", {.schedule = kDynamic}},
      {"fig10b/schedule", "cost_aware", {.schedule = kCostAware}},
      {"fig10c/order", "degree", {.ordering = kDegree}},
      {"fig10c/order", "sig_path", {.ordering = kSignificantPath}},
      {"fig10c/order", "hybrid", {.ordering = kHybrid}}};
  for (const auto& [figure, variant, options] : variants) {
    const Built& b = d.Build(options);
    r.Add(figure, d.spec.code, variant, b.seconds,
          {{"order_s", b.stats.ordering_seconds},
           {"construct_s", b.stats.construction_seconds},
           {"entries", static_cast<double>(b.stats.total_entries)}});
    d.Release();
  }
}

// Fig. 11 (Exp 6): the hybrid order's threshold delta against index
// size, index time and query time.
void Fig11(Dataset& d, Report& r) {
  if (!d.spec.in_sweep_set && d.spec.code != "RD") return;
  const QueryBatch batch = pspc::MakeRandomQueries(
      d.graph.NumVertices(), QueryWorkloadSize() / 10, /*seed=*/0xF11);
  for (const VertexId delta : {0, 1, 2, 5, 10, 20, 50}) {
    const Built& b = d.Build(
        {.ordering = pspc::OrderingScheme::kHybrid, .hybrid_delta = delta});
    const pspc::SpcIndex& index = b.index.value();
    WallTimer timer;
    pspc::RunQueries(index, batch);
    r.Add("fig11/delta_effect", d.spec.code,
          "delta:" + std::to_string(delta), b.seconds,
          {{"query_us", timer.ElapsedMicros() / batch.size()},
           {"index_MB", MB(index.SizeBytes())}, {"index_s", b.seconds},
           {"delta", delta}});
    d.Release();
  }
}

// Fig. 12 (Exp 7): the number of landmarks against indexing time.
void Fig12(Dataset& d, Report& r) {
  if (!d.spec.in_sweep_set) return;
  for (const uint32_t k : {0, 8, 16, 32, 64, 100, 150, 250}) {
    const Built& b = d.Build({.num_landmarks = k});
    r.Add("fig12/landmark_count", d.spec.code, "k:" + std::to_string(k),
          b.seconds,
          {{"landmarks", k}, {"landmark_s", b.stats.landmark_seconds},
           {"construct_s", b.stats.construction_seconds},
           {"pruned_by_lm", static_cast<double>(b.stats.pruned_by_landmark)}});
    d.Release();
  }
}

// Fig. 13 (Exp 8): PSPC+ indexing time split into Order, LL and LC,
// plus the finalize that flattens the labels into the index.
void Fig13(Dataset& d, Report& r) {
  const Built& b = d.Build(kPspcPlus);
  const double total = b.stats.TotalSeconds();
  r.Add("fig13/time_breakdown", d.spec.code, "", b.seconds,
        {{"order_s", b.stats.ordering_seconds},
         {"LL_s", b.stats.landmark_seconds},
         {"LC_s", b.stats.construction_seconds},
         {"finalize_s", b.stats.finalize_seconds},
         {"LC_share", total > 0 ? b.stats.construction_seconds / total : 0}});
}

/// The generators leave almost no degree-1 fringe or twin vertices, on
/// which the reductions bite; real social graphs are pendant-heavy. So
/// the "f" variants graft seeded pendant chains (+50% vertices, length
/// 1-3) and 5 duplicate leaves on each of 32 hubs onto the dataset.
Graph Fringed(const Graph& base) {
  const VertexId n = base.NumVertices();
  const VertexId extra = n / 2;
  pspc::GraphBuilder b(n + extra + 32 * 5);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : base.Neighbors(u)) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  pspc::Rng rng(0xF41);
  VertexId next = n;
  while (next < n + extra) {
    VertexId anchor = static_cast<VertexId>(rng.NextBounded(n));
    const int chain = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < chain && next < n + extra; ++i) {
      b.AddEdge(anchor, next);
      anchor = next++;
    }
  }
  for (VertexId hub = 0; hub < 32; ++hub) {
    for (int i = 0; i < 5; ++i) b.AddEdge(hub, next++);
  }
  return b.Build();
}

void ReductionRows(const std::string& code, const Graph& g, Report& r) {
  const QueryBatch batch = pspc::MakeRandomQueries(
      g.NumVertices(), QueryWorkloadSize() / 10, /*seed=*/0xABA);
  for (const auto& [tag, one_shell, equivalence] :
       {std::tuple{"none", false, false}, std::tuple{"one_shell", true, false},
        std::tuple{"equivalence", false, true},
        std::tuple{"both", true, true}}) {
    const pspc::ReductionOptions options{.use_one_shell = one_shell,
                                         .use_equivalence = equivalence,
                                         .build = kPspcPlus};
    pspc::ReducedSpcIndex::Build(g, options);  // untimed warmup
    WallTimer timer;
    const auto index = pspc::ReducedSpcIndex::Build(g, options);
    const double seconds = timer.ElapsedSeconds();
    WallTimer query_timer;
    for (const auto& [s, t] : batch) index.Query(s, t);
    r.Add("reductions", code, tag, seconds,
          {{"query_us", query_timer.ElapsedMicros() / batch.size()},
           {"index_MB", MB(index.IndexSizeBytes())},
           {"reduced_V", index.NumReducedVertices()}});
  }
}

// Extension (§IV describes the reductions but reports no experiment):
// index size and query time under the 1-shell and equivalence
// reductions, on the base datasets and their grafted "f" variants.
void Reductions(Dataset& d, Report& r) {
  const std::string& code = d.spec.code;
  if (code != "YT" && code != "RD" && code != "FB") return;
  ReductionRows(code, d.graph, r);
  if (code != "RD") ReductionRows(code + "f", Fringed(d.graph), r);
}

/// A section, and the builds an earlier section may have made whose
/// index it queries (every other read is of build stats and time).
struct Section {
  const char* name;
  void (*run)(Dataset&, Report&);
  std::vector<BuildOptions> queried = {};
};

const Section kSections[] = {
    {"table3", Table3}, {"fig5", Fig5},
    {"fig6", Fig6, {kHpSpc, kPspc, kPspcPlus}},
    {"fig7", Fig7, {kHpSpc, kPspc, kPspcPlus}},
    {"fig8", Fig8}, {"fig9", Fig9, {kPspcPlus}}, {"fig10", Fig10, {kPspcPlus}},
    {"fig11", Fig11, {{.ordering = pspc::OrderingScheme::kHybrid}}},
    {"fig12", Fig12}, {"fig13", Fig13}, {"reductions", Reductions}};
constexpr size_t kNumSections = std::size(kSections);

void Dataset::Release() {
  std::set<std::string> queried;
  for (size_t s = section; s < kNumSections; ++s) {
    if (!selected[s]) continue;
    for (const BuildOptions& o : kSections[s].queried) queried.insert(Key(o));
  }
  for (auto& [key, built] : builds) {
    if (queried.count(key) == 0) built.index.reset();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<bool> selected(kNumSections, false);
  std::set<std::string> codes;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    bool known = false;
    for (size_t s = 0; s < kNumSections; ++s) {
      if (arg == kSections[s].name) selected[s] = known = true;
    }
    for (const pspc::DatasetSpec& spec : pspc::AllDatasets()) {
      if (arg == spec.code) {
        codes.insert(arg);
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown argument: %s\nusage: bench_paper "
                   "[section...] [dataset...] [--json <path>]\n", arg.c_str());
      return 2;
    }
  }
  if (std::find(selected.begin(), selected.end(), true) == selected.end()) {
    selected.assign(kNumSections, true);
  }

  Report report;
  for (const pspc::DatasetSpec& spec : pspc::AllDatasets()) {
    if (!codes.empty() && codes.count(spec.code) == 0) continue;
    WallTimer timer;
    Dataset dataset{spec, selected, spec.build(pspc::BenchScaleDivisor())};
    dataset.generate_seconds = timer.ElapsedSeconds();
    for (size_t s = 0; s < kNumSections; ++s) {
      if (!selected[s]) continue;
      dataset.section = s;
      dataset.Release();
      kSections[s].run(dataset, report);
    }
  }
  std::printf("\n%zu rows; %zu invariant checks, %zu broken\n",
              report.num_rows, report.num_checks, report.num_failures);
  if (!json_path.empty()) {
    pspc::benchjson::Object root;
    root.Add("bench", "paper")
        .Add("scale_divisor", static_cast<uint64_t>(pspc::BenchScaleDivisor()))
        .Add("threads", pspc::MaxThreads())
        .AddRaw("rows", report.rows.Serialize())
        .Add("invariant_checks", static_cast<uint64_t>(report.num_checks))
        .Add("invariant_failures", static_cast<uint64_t>(report.num_failures))
        .Add("ok", report.num_failures == 0);
    if (!pspc::benchjson::WriteFile(json_path, root)) return 1;
  }
  return report.num_failures == 0 ? 0 : 1;
}
