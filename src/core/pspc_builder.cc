#include "src/core/pspc_builder.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include <omp.h>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/saturating.h"
#include "src/common/timer.h"
#include "src/core/landmark_filter.h"
#include "src/core/scheduler.h"
#include "src/label/label_set.h"

namespace pspc {
namespace {

/// Per-thread scratch. The candidate map is an epoch-stamped array over
/// hub ranks (O(1) clear between vertices); tmp_dist materializes the
/// current vertex's labels for the 2-hop pruning query.
struct ThreadScratch {
  std::vector<Count> cand_count;
  std::vector<uint32_t> cand_epoch;
  std::vector<Rank> cand_hubs;
  std::vector<Distance> tmp_dist;
  uint32_t epoch = 0;
  std::vector<LabelEntry> pending;

  size_t candidates = 0;
  size_t pruned_landmark = 0;
  size_t pruned_query = 0;

  void Init(VertexId n) {
    cand_count.assign(n, 0);
    cand_epoch.assign(n, 0);
    tmp_dist.assign(n, kInfDistance);
  }
};

/// A CSR adjacency: the neighbors a label side pulls from.
struct Adjacency {
  const std::vector<EdgeId>& offsets;
  const std::vector<VertexId>& neighbors;

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors.data() + offsets[v], neighbors.data() + offsets[v + 1]};
  }
};

/// One label side: iteration d extends `store` with `L_d(u)`, pulled
/// from the level-(d-1) entries of u's neighbors in `pull`, and prunes
/// a candidate hub w by pairing u's own committed entries with w's
/// entries in `witness`. An undirected side is its own witness.
struct LabelSide {
  LevelLabelStore* store;
  const LevelLabelStore* witness;
  Adjacency pull;
};

/// Shared state of one construction run.
struct BuildContext {
  const VertexOrder& order;
  const BuildOptions& options;
  std::span<const Count> vertex_weights;  // empty: all 1
  int num_threads;
  const LandmarkFilter* landmarks = nullptr;  // null: filtering disabled
  std::vector<ThreadScratch> scratch;
  std::vector<std::vector<LabelEntry>> staging;

  BuildContext(const VertexOrder& o, const BuildOptions& opt,
               std::span<const Count> weights)
      : order(o), options(opt), vertex_weights(weights),
        num_threads(opt.num_threads > 0 ? opt.num_threads : MaxThreads()),
        scratch(num_threads), staging(o.Size()) {
    for (auto& s : scratch) s.Init(o.Size());
  }
};

/// Applies Lemma 4 (+ landmark fast path) to the merged candidates in
/// `s.cand_hubs` and stages the survivors as `L_d(u)`. Candidate hub
/// ranks are sorted first, so staged levels are deterministic.
void PruneAndStage(BuildContext& ctx, const LabelSide& side, ThreadScratch& s,
                   VertexId u, Distance d) {
  std::sort(s.cand_hubs.begin(), s.cand_hubs.end());
  const auto my_labels = side.store->Entries(u);
  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = e.dist;

  s.pending.clear();
  for (Rank hub_rank : s.cand_hubs) {
    ++s.candidates;
    const VertexId w = ctx.order.VertexAt(hub_rank);
    if (ctx.landmarks != nullptr) {
      // Landmarks are the top-ranked vertices under the same order, so
      // a landmark probe is decisive for landmark hubs (the common
      // case); other candidates fall through to the label query.
      const LandmarkFilter::Verdict verdict =
          ctx.landmarks->Probe(u, hub_rank, d);
      if (verdict == LandmarkFilter::Verdict::kPrune) {
        ++s.pruned_landmark;
        continue;
      }
      if (verdict == LandmarkFilter::Verdict::kKeep) {
        s.pending.push_back({hub_rank, d, s.cand_count[hub_rank]});
        continue;
      }
    }
    // 2-hop query against committed labels (distance < d on both
    // sides). Entries of w are committed level by level, hence sorted
    // by distance: once e.dist >= d no witness < d can follow.
    uint32_t q = kInfDistance;
    for (const LabelEntry& e : side.witness->Entries(w)) {
      if (e.dist >= d) break;
      const Distance ud = s.tmp_dist[e.hub_rank];
      if (ud == kInfDistance) continue;
      q = std::min<uint32_t>(q, static_cast<uint32_t>(ud) + e.dist);
      if (q < d) break;
    }
    if (q < d) {
      ++s.pruned_query;
      continue;
    }
    s.pending.push_back({hub_rank, d, s.cand_count[hub_rank]});
  }

  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = kInfDistance;
  ctx.staging[u] = s.pending;  // copy into the per-vertex staging slot
}

/// PULL iteration body for one vertex: gather neighbors' level-(d-1)
/// labels, merge counts per hub (Label Merging), then prune and stage.
void ProcessVertexPull(BuildContext& ctx, const LabelSide& side,
                       ThreadScratch& s, VertexId u, Distance d) {
  const Rank my_rank = ctx.order.RankOf(u);
  const std::span<const Count> weights = ctx.vertex_weights;
  ++s.epoch;
  s.cand_hubs.clear();
  for (VertexId v : side.pull.Neighbors(u)) {
    // Extending a neighbor's path makes v an internal vertex, so its
    // multiplicity applies — except at d == 1, where the only level-0
    // entry is v's own hub (v stays an endpoint).
    const Count factor =
        (weights.empty() || d == 1) ? Count{1} : weights[v];
    for (const LabelEntry& e : side.store->Level(v, d - 1)) {
      // Level entries are sorted by hub rank; every hub from here on
      // ranks below u (Lemma 3), so stop scanning this neighbor.
      if (e.hub_rank >= my_rank) break;
      const Count contribution = SatMul(e.count, factor);
      if (s.cand_epoch[e.hub_rank] != s.epoch) {
        s.cand_epoch[e.hub_rank] = s.epoch;
        s.cand_count[e.hub_rank] = contribution;
        s.cand_hubs.push_back(e.hub_rank);
      } else {
        s.cand_count[e.hub_rank] =
            SatAdd(s.cand_count[e.hub_rank], contribution);
      }
    }
  }
  if (!s.cand_hubs.empty()) {
    PruneAndStage(ctx, side, s, u, d);
  }
}

/// Runs `body(u)` over `plan.sequence` honoring the plan's chunking.
template <typename Body>
void RunPlanned(const SchedulePlan& plan, int num_threads, const Body& body) {
  const size_t n = plan.sequence.size();
  if (plan.dynamic) {
    ParallelForDynamic(n, num_threads, plan.chunk,
                       [&](size_t i) { body(plan.sequence[i]); });
  } else {
    ParallelForStatic(n, num_threads,
                      [&](size_t i) { body(plan.sequence[i]); });
  }
}

/// Commit phase: appends each vertex's staged level to `store`
/// (possibly empty so level offsets stay aligned across vertices);
/// returns entries committed.
size_t CommitStaged(BuildContext& ctx, LevelLabelStore& store) {
  std::atomic<size_t> committed{0};
  ParallelForStatic(store.NumVertices(), ctx.num_threads, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    store.CommitLevel(u, ctx.staging[u]);
    if (!ctx.staging[u].empty()) {
      // relaxed: per-thread tally; the parallel-for join orders it
      // before the final load.
      committed.fetch_add(ctx.staging[u].size(), std::memory_order_relaxed);
      ctx.staging[u].clear();
    }
  });
  return committed.load();
}

/// One PULL iteration of `side` at distance d; returns entries
/// committed.
size_t PullIteration(BuildContext& ctx, const LabelSide& side, Distance d) {
  const VertexId n = side.store->NumVertices();
  // Active vertices: those with a neighbor that committed level d-1
  // entries. Also collect the Def.-11 cost estimate when needed.
  const bool need_costs = ctx.options.schedule == ScheduleKind::kCostAware;
  std::vector<uint8_t> active_flag(n, 0);
  std::vector<uint64_t> vertex_cost(need_costs ? n : 0, 0);
  ParallelForStatic(n, ctx.num_threads, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    uint64_t cost = 0;
    for (VertexId v : side.pull.Neighbors(u)) {
      const size_t len = side.store->Level(v, d - 1).size();
      if (len != 0) {
        active_flag[u] = 1;
        if (!need_costs) break;
        cost += len;
      }
    }
    if (need_costs) vertex_cost[u] = cost;
  });
  std::vector<VertexId> active;
  for (VertexId u = 0; u < n; ++u) {
    if (active_flag[u] != 0) active.push_back(u);
  }
  std::vector<uint64_t> costs;
  if (need_costs) {
    costs.reserve(active.size());
    for (VertexId u : active) costs.push_back(vertex_cost[u]);
  }
  const SchedulePlan plan = PlanIteration(ctx.options.schedule, active, costs,
                                          ctx.order.VertexToRank());
  RunPlanned(plan, ctx.num_threads, [&](VertexId u) {
    ProcessVertexPull(ctx, side, ctx.scratch[omp_get_thread_num()], u, d);
  });
  return CommitStaged(ctx, *side.store);
}

/// Phase LC over `sides`: level 0 makes every vertex its own hub with
/// one empty trough path, then iteration d runs each side in turn until
/// an iteration commits nothing. A side committed earlier in iteration
/// d cannot change a later side's verdicts: pruning scans stop at
/// distance d, and level-d entries follow every shorter one.
void ConstructLabels(BuildContext& ctx, std::span<const LabelSide> sides,
                     BuildStats& stats) {
  const VertexId n = ctx.order.Size();
  for (const LabelSide& side : sides) {
    for (VertexId v = 0; v < n; ++v) {
      const LabelEntry self{ctx.order.RankOf(v), 0, 1};
      side.store->CommitLevel(v, {&self, 1});
    }
  }
  stats.entries_per_level.push_back(sides.size() * n);
  stats.num_iterations = 1;

  for (Distance d = 1; d < kInfDistance; ++d) {
    size_t committed = 0;
    for (const LabelSide& side : sides) {
      committed += PullIteration(ctx, side, d);
    }
    if (committed == 0) break;
    stats.entries_per_level.push_back(committed);
    ++stats.num_iterations;
  }

  for (const ThreadScratch& s : ctx.scratch) {
    stats.candidates_after_merge += s.candidates;
    stats.pruned_by_landmark += s.pruned_landmark;
    stats.pruned_by_query += s.pruned_query;
  }
  for (const LabelSide& side : sides) {
    stats.total_entries += side.store->TotalEntries();
  }
  stats.labels_inserted = stats.total_entries;
}

}  // namespace

BuildResult BuildPspcIndex(const Graph& graph, const VertexOrder& order,
                           const BuildOptions& options,
                           std::span<const Count> vertex_weights) {
  const VertexId n = graph.NumVertices();
  PSPC_CHECK(order.Size() == n);
  PSPC_CHECK(vertex_weights.empty() || vertex_weights.size() == n);
  BuildResult result;

  // Phase LL: landmark distance tables (paper §III-H, Fig. 13 "LL").
  LandmarkFilter landmarks;
  {
    WallTimer timer;
    if (options.num_landmarks > 0 && n > 0) {
      landmarks = LandmarkFilter(graph, order, options.num_landmarks,
                                 options.num_threads);
    }
    result.stats.landmark_seconds = timer.ElapsedSeconds();
  }

  // Phase LC: distance-iteration label construction (Fig. 13 "LC").
  WallTimer timer;
  BuildContext ctx(order, options, vertex_weights);
  if (landmarks.NumLandmarks() > 0) {
    ctx.landmarks = &landmarks;
  }
  LevelLabelStore store(n);
  const Adjacency adjacency{graph.Offsets(), graph.NeighborArray()};
  const LabelSide side{&store, &store, adjacency};
  ConstructLabels(ctx, {&side, 1}, result.stats);
  result.stats.construction_seconds = timer.ElapsedSeconds();

  result.index = SpcIndex(order, store.TakeEntries());
  return result;
}

BuildResult BuildDirectedPspcIndex(const DiGraph& graph,
                                   const VertexOrder& order,
                                   const BuildOptions& options) {
  const VertexId n = graph.NumVertices();
  PSPC_CHECK(order.Size() == n);
  BuildResult result;

  WallTimer timer;
  BuildContext ctx(order, options, {});
  LevelLabelStore in_store(n), out_store(n);
  const Adjacency in{graph.InOffsets(), graph.InNeighborArray()};
  const Adjacency out{graph.OutOffsets(), graph.OutNeighborArray()};
  const LabelSide sides[] = {{&in_store, &out_store, in},
                             {&out_store, &in_store, out}};
  ConstructLabels(ctx, sides, result.stats);
  result.stats.construction_seconds = timer.ElapsedSeconds();

  result.index =
      SpcIndex(order, out_store.TakeEntries(), in_store.TakeEntries());
  return result;
}

VertexOrder DirectedDegreeOrder(const DiGraph& graph) {
  std::vector<VertexId> order(graph.NumVertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&graph](VertexId a, VertexId b) {
                     return graph.InDegree(a) + graph.OutDegree(a) >
                            graph.InDegree(b) + graph.OutDegree(b);
                   });
  return VertexOrder(std::move(order));
}

}  // namespace pspc
