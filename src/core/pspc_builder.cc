#include "src/core/pspc_builder.h"

#include <algorithm>
#include <array>
#include <limits>
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

/// Address space reserved for each thread's staging buffer. Untouched
/// capacity costs no memory, and a buffer this large is mapped on its
/// own (glibc maps every block of 32 MiB or more) and goes back to the
/// system when the build frees it. Grown from empty instead, each
/// outgrown copy raises glibc's mmap threshold, and the freed buffers
/// stay resident in the heap: on 4 vCPUs, perfbench's FB-shape `build`
/// then peaked at 327-403 MB of RSS, against 296-305 MB with the
/// reserve.
constexpr size_t kStagingReserveBytes = size_t{64} << 20;

/// Per-thread scratch. The candidate map is an epoch-stamped array over
/// hub ranks (O(1) clear between vertices); tmp_dist materializes the
/// current vertex's distance entries for the 2-hop pruning query.
/// `staged` holds this iteration's survivors of every vertex the thread
/// pruned, and `count_only` holds one vertex's count-only survivors
/// until its distance entries are staged.
struct ThreadScratch {
  std::vector<Count> cand_count;
  std::vector<uint32_t> cand_epoch;
  std::vector<Rank> cand_hubs;
  std::vector<Distance> tmp_dist;
  uint32_t epoch = 0;
  std::vector<LabelEntry> staged;
  std::vector<LabelEntry> count_only;

  size_t candidates = 0;
  size_t pruned_landmark = 0;
  size_t pruned_query = 0;

  void Init(VertexId n) {
    cand_count.assign(n, 0);
    cand_epoch.assign(n, 0);
    tmp_dist.assign(n, kInfDistance);
    staged.reserve(kStagingReserveBytes / sizeof(LabelEntry));
  }
};

/// Where a vertex's staged level sits: `num_dist` distance entries, then
/// `num_count` count-only entries, from `begin` in the `staged` buffer
/// of thread `thread`. A vertex with no survivors stages nothing.
struct StagedLevel {
  uint32_t thread = 0;
  uint32_t num_dist = 0;
  uint32_t num_count = 0;
  size_t begin = 0;
};

/// A CSR adjacency: the neighbors a label side pulls from.
struct Adjacency {
  const std::vector<EdgeId>& offsets;
  const std::vector<VertexId>& neighbors;

  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors.data() + offsets[v], neighbors.data() + offsets[v + 1]};
  }
};

/// One label side: iteration d extends its distance and count stores
/// with `L_d(u)`, pulled from the level-(d-1) entries of u's neighbors
/// in `pull`, and prunes a candidate hub w by pairing u's distance
/// entries with w's entries in `witness`, a distance store. An
/// undirected side is its own witness.
struct LabelSide {
  LevelLabelStore* dist;
  LevelLabelStore* count;
  const LevelLabelStore* witness;
  Adjacency pull;
};

/// Shared state of one construction run.
struct BuildContext {
  const VertexOrder& order;
  const BuildOptions& options;
  std::span<const Count> vertex_weights;  // empty: all 1
  int num_threads;
  const LandmarkFilter* landmarks;  // null: filtering disabled
  std::vector<ThreadScratch> scratch;
  std::vector<StagedLevel> staged;  // per vertex, this iteration

  BuildContext(const VertexOrder& o, const BuildOptions& opt,
               std::span<const Count> weights, const LandmarkFilter* lm)
      : order(o), options(opt), vertex_weights(weights),
        num_threads(opt.num_threads > 0 ? opt.num_threads : MaxThreads()),
        landmarks(lm), scratch(num_threads), staged(o.Size()) {
    for (auto& s : scratch) s.Init(o.Size());
  }
};

/// The prune scan's 32-bit sum of two 16-bit distances cannot wrap, so
/// an absent hub's kInfDistance keeps it above every level d: it can
/// neither prune a candidate nor mark it count-only.
static_assert(2 * uint64_t{kInfDistance} <=
              std::numeric_limits<uint32_t>::max());

/// Applies Lemma 4 (+ landmark fast path) to the merged candidates in
/// `s.cand_hubs`, in gather order, and stages the survivors as `L_d(u)`
/// in the buffer of thread `thread`. A verdict reads only the landmark
/// tables, `tmp_dist` and committed witness entries, so the candidate
/// order cannot change it. Only the survivors are sorted, each run by
/// hub rank (unique within a level), so staged levels are
/// deterministic.
void PruneAndStage(BuildContext& ctx, const LabelSide& side, uint32_t thread,
                   VertexId u, Distance d) {
  ThreadScratch& s = ctx.scratch[thread];
  const auto my_labels = side.dist->Entries(u);
  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = e.dist;

  const size_t begin = s.staged.size();
  s.count_only.clear();
  for (Rank hub_rank : s.cand_hubs) {
    ++s.candidates;
    const LabelEntry entry{hub_rank, d, s.cand_count[hub_rank]};
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
        s.staged.push_back(entry);  // an exact distance
        continue;
      }
    }
    // 2-hop query against committed distance entries (distance < d on
    // both sides). Entries of w are committed level by level, hence
    // sorted by distance: once e.dist >= d no witness < d can follow.
    // A hub absent from u's entries needs no skip (see above).
    uint32_t q = kInfDistance;
    for (const LabelEntry& e : side.witness->Entries(w)) {
      if (e.dist >= d) break;
      q = std::min<uint32_t>(q, uint32_t{s.tmp_dist[e.hub_rank]} + e.dist);
      if (q < d) break;
    }
    if (q < d) {
      ++s.pruned_query;
      continue;
    }
    // q == d: a hub above w lies on a shortest u-w path, so the entry
    // is non-canonical and only adds counts.
    (q == d ? s.count_only : s.staged).push_back(entry);
  }

  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = kInfDistance;
  std::sort(s.staged.begin() + begin, s.staged.end(), ByHubRank);
  std::sort(s.count_only.begin(), s.count_only.end(), ByHubRank);
  const size_t num_dist = s.staged.size() - begin;
  s.staged.insert(s.staged.end(), s.count_only.begin(), s.count_only.end());
  ctx.staged[u] = {thread, static_cast<uint32_t>(num_dist),
                   static_cast<uint32_t>(s.count_only.size()), begin};
}

/// PULL iteration body for one vertex: gather neighbors' level-(d-1)
/// labels from both stores, merge counts per hub (Label Merging), then
/// prune and stage.
void ProcessVertexPull(BuildContext& ctx, const LabelSide& side,
                       uint32_t thread, VertexId u, Distance d) {
  ThreadScratch& s = ctx.scratch[thread];
  const Rank my_rank = ctx.order.RankOf(u);
  const std::span<const Count> weights = ctx.vertex_weights;
  ++s.epoch;
  s.cand_hubs.clear();
  const auto gather = [&](std::span<const LabelEntry> level, Count factor) {
    for (const LabelEntry& e : level) {
      // Level entries are sorted by hub rank; every hub from here on
      // ranks below u (Lemma 3), so stop scanning this run.
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
  };
  for (VertexId v : side.pull.Neighbors(u)) {
    // Extending a neighbor's path makes v an internal vertex, so its
    // multiplicity applies — except at d == 1, where the only level-0
    // entry is v's own hub (v stays an endpoint).
    const Count factor =
        (weights.empty() || d == 1) ? Count{1} : weights[v];
    gather(side.dist->Level(v, d - 1), factor);
    gather(side.count->Level(v, d - 1), factor);
  }
  if (!s.cand_hubs.empty()) {
    PruneAndStage(ctx, side, thread, u, d);
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

/// Commit phase: appends each vertex's staged level to the side's two
/// stores (possibly empty, so level offsets stay aligned across
/// vertices), then empties the thread buffers; returns entries
/// committed.
size_t CommitStaged(BuildContext& ctx, const LabelSide& side) {
  ParallelForStatic(ctx.staged.size(), ctx.num_threads, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    StagedLevel& level = ctx.staged[u];
    const LabelEntry* const first =
        ctx.scratch[level.thread].staged.data() + level.begin;
    side.dist->CommitLevel(u, {first, level.num_dist});
    side.count->CommitLevel(u, {first + level.num_dist, level.num_count});
    level = {};
  });
  size_t committed = 0;
  for (ThreadScratch& s : ctx.scratch) {
    committed += s.staged.size();
    s.staged.clear();
  }
  return committed;
}

/// One PULL iteration of `side` at distance d; returns entries
/// committed.
size_t PullIteration(BuildContext& ctx, const LabelSide& side, Distance d) {
  const VertexId n = ctx.order.Size();
  // Active vertices: those with a neighbor that committed level d-1
  // entries. Also collect the Def.-11 cost estimate when needed.
  const bool need_costs = ctx.options.schedule == ScheduleKind::kCostAware;
  std::vector<uint8_t> active_flag(n, 0);
  std::vector<uint64_t> vertex_cost(need_costs ? n : 0, 0);
  ParallelForStatic(n, ctx.num_threads, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    uint64_t cost = 0;
    for (VertexId v : side.pull.Neighbors(u)) {
      const size_t len = side.dist->Level(v, d - 1).size() +
                         side.count->Level(v, d - 1).size();
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
    ProcessVertexPull(ctx, side, static_cast<uint32_t>(omp_get_thread_num()),
                      u, d);
  });
  return CommitStaged(ctx, side);
}

/// Phase LC over `sides`: level 0 makes every vertex its own hub with
/// one empty trough path, then iteration d runs each side in turn until
/// an iteration commits nothing. A side committed earlier in iteration
/// d cannot change a later side's verdicts: pruning scans stop at
/// distance d, and level-d entries follow every shorter one. The
/// context, with every thread buffer, is freed on return.
void ConstructLabels(BuildContext ctx, std::span<const LabelSide> sides,
                     BuildStats& stats) {
  const VertexId n = ctx.order.Size();
  for (const LabelSide& side : sides) {
    for (VertexId v = 0; v < n; ++v) {
      const LabelEntry self{ctx.order.RankOf(v), 0, 1};
      side.dist->CommitLevel(v, {&self, 1});
      side.count->CommitLevel(v, {});
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
    // Self entries count in neither half of the split, as in HP-SPC.
    stats.canonical_labels += side.dist->TotalEntries() - n;
    stats.non_canonical_labels += side.count->TotalEntries();
  }
  stats.total_entries =
      sides.size() * n + stats.canonical_labels + stats.non_canonical_labels;
  stats.labels_inserted = stats.total_entries;
}

/// Both stores of a side, as the parts `SpcIndex` flattens into it.
std::array<LabelLists, 2> TakeParts(const LabelSide& side) {
  return {side.dist->TakeEntries(), side.count->TakeEntries()};
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
  LevelLabelStore dist(n), count(n);
  const Adjacency adjacency{graph.Offsets(), graph.NeighborArray()};
  const LabelSide side{&dist, &count, &dist, adjacency};
  ConstructLabels(
      BuildContext(order, options, vertex_weights,
                   landmarks.NumLandmarks() > 0 ? &landmarks : nullptr),
      {&side, 1}, result.stats);
  result.stats.construction_seconds = timer.ElapsedSeconds();

  WallTimer finalize;
  std::array<LabelLists, 2> parts = TakeParts(side);
  result.index = SpcIndex(order, parts, {}, options.num_threads);
  result.stats.finalize_seconds = finalize.ElapsedSeconds();
  return result;
}

BuildResult BuildDirectedPspcIndex(const DiGraph& graph,
                                   const VertexOrder& order,
                                   const BuildOptions& options) {
  const VertexId n = graph.NumVertices();
  PSPC_CHECK(order.Size() == n);
  BuildResult result;

  WallTimer timer;
  LevelLabelStore in_dist(n), in_count(n), out_dist(n), out_count(n);
  const Adjacency in{graph.InOffsets(), graph.InNeighborArray()};
  const Adjacency out{graph.OutOffsets(), graph.OutNeighborArray()};
  const LabelSide sides[] = {{&in_dist, &in_count, &out_dist, in},
                             {&out_dist, &out_count, &in_dist, out}};
  ConstructLabels(BuildContext(order, options, {}, nullptr), sides,
                  result.stats);
  result.stats.construction_seconds = timer.ElapsedSeconds();

  WallTimer finalize;
  std::array<LabelLists, 2> out_parts = TakeParts(sides[1]);
  std::array<LabelLists, 2> in_parts = TakeParts(sides[0]);
  result.index = SpcIndex(order, out_parts, in_parts, options.num_threads);
  result.stats.finalize_seconds = finalize.ElapsedSeconds();
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
