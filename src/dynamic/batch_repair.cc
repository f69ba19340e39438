// Coalesced batch-deletion half of the undirected DynamicSpcIndex (see
// the class comment in dynamic_spc_index.h): per-hub task planning
// across the net-deleted edges of a batch, and the ascending-rank task
// run. Split from dynamic_spc_index.cc so the single-update repair
// machinery and the batch orchestration stay readable on their own.

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dynamic/dynamic_spc_index.h"

namespace pspc {

/// Planning artifact of one net-deleted edge: the two compressed
/// affected regions, detected against the pre-batch graph and index.
template <class GraphT>
struct DynamicIndex<GraphT>::DeletedEdgePlan {
  VertexId a = 0;
  VertexId b = 0;
  SparseSide sides[2];  // [0] detected from a, [1] detected from b
};

template <class GraphT>
void DynamicIndex<GraphT>::RepairDeletionsBatch(
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  const VertexId n = base_graph_.NumVertices();
  const size_t k = edges.size();

  // ---- Planning, against the pre-batch graph and still-exact index.
  std::vector<DeletedEdgePlan> plans(k);
  std::vector<uint8_t> seed_ok(n, 0);
  std::vector<uint32_t> seed_dist(n, 0);
  std::vector<Count> seed_count(n, 0);
  std::vector<VertexId> seed_far(n, 0);
  // Per edge: whether each side's full senders get the exact
  // distance-change filter, and the pre-deletion endpoint distances
  // the filter's through-edge formula needs.
  constexpr size_t kDistanceFilterCap = 256;
  std::vector<std::array<bool, 2>> filter(k);
  {
    AffectedSide side;  // dense detection scratch, reused per side
    std::vector<uint8_t> hub_of_a(n, 0), hub_of_b(n, 0);
    for (size_t i = 0; i < k; ++i) {
      const auto [a, b] = edges[i];
      plans[i].a = a;
      plans[i].b = b;
      for (const LabelEntry& e : Labels(a)) hub_of_a[e.hub_rank] = 1;
      for (const LabelEntry& e : Labels(b)) hub_of_b[e.hub_rank] = 1;

      for (int s = 0; s < 2; ++s) {
        const VertexId near = s == 0 ? a : b;
        const VertexId far = s == 0 ? b : a;
        repair::DetectAffectedSide(Forward(), near, far, hub_of_a, hub_of_b,
                                   &side);
        SparseSide& sparse = plans[i].sides[s];
        sparse.touched = std::move(side.touched);
        sparse.full_ranks = std::move(side.full_ranks);
        sparse.subtract_ranks = std::move(side.subtract_ranks);
        sparse.flags.reserve(sparse.touched.size());
        for (const VertexId v : sparse.touched) {
          sparse.flags.push_back(side.flags[v]);
        }
      }
      filter[i] = {plans[i].sides[1].full_ranks.size() <= kDistanceFilterCap,
                   plans[i].sides[0].full_ranks.size() <= kDistanceFilterCap};

      for (const LabelEntry& e : Labels(a)) hub_of_a[e.hub_rank] = 0;
      for (const LabelEntry& e : Labels(b)) hub_of_b[e.hub_rank] = 0;
    }
  }

  // ---- Per-hub coalescing: every region membership of every edge
  // (full, subtractive, *and* receiver — see SparseSide) grouped by
  // rank. One involvement keeps the sharp single-edge classification;
  // two or more escalate to a single conservative full re-run over the
  // union of the opposite regions — the coalescing win: the hub runs
  // once instead of once per edge, and cross-edge entanglement (count
  // algebra and distance growth no single-edge certificate covers) is
  // recomputed from scratch exactly.
  struct Involvement {
    Rank rank;
    uint32_t edge;
    uint8_t side;
    int8_t cls;  // AffectedSide flag value: 1 full, 2 subtract, -1 receiver
  };
  std::vector<Involvement> involvements;
  for (size_t i = 0; i < k; ++i) {
    for (int s = 0; s < 2; ++s) {
      const SparseSide& side = plans[i].sides[s];
      for (size_t t = 0; t < side.touched.size(); ++t) {
        involvements.push_back({order_.RankOf(side.touched[t]),
                                static_cast<uint32_t>(i),
                                static_cast<uint8_t>(s), side.flags[t]});
      }
    }
  }
  std::sort(involvements.begin(), involvements.end(),
            [](const Involvement& x, const Involvement& y) {
              return x.rank < y.rank;
            });

  // ---- Adaptive cutover. A multi-region hub costs the batch one
  // conservative full re-run; sequential application pays one (often
  // cheaper) run per *sender* involvement — or nothing at all for
  // receiver-only overlap and for full senders its distance filter
  // proves untouched. Coalescing deletions only wins when the shared
  // hubs really concentrate sender work, so proceed only when
  // multi-region hubs average at least two sender involvements;
  // otherwise replay the deletions through the sharp single-edge path
  // (decided before any topology change, so each RepairDeletion still
  // detects against an exact index). Insertion coalescing is
  // unaffected either way.
  {
    size_t multi_hubs = 0, multi_senders = 0;
    for (size_t i = 0; i < involvements.size();) {
      size_t j = i;
      size_t senders = 0;
      while (j < involvements.size() &&
             involvements[j].rank == involvements[i].rank) {
        if (involvements[j].cls != -1) ++senders;
        ++j;
      }
      if (j - i >= 2) {
        ++multi_hubs;
        multi_senders += senders;
      }
      i = j;
    }
    if (2 * multi_hubs > multi_senders) {
      for (const auto& [a, b] : edges) {
        RepairDeletion(a, b);
      }
      return;
    }
  }

  // ---- Subtraction seeds, validated per edge against the still-exact
  // pre-deletion index (batched path only — the fallback re-validates
  // through RepairDeletion itself). A rank's seed is only consumed
  // when its sole involvement is that edge, so the rank-indexed
  // arrays cannot clash across edges.
  {
    std::vector<uint8_t> hub_of_a(n, 0), hub_of_b(n, 0);
    for (size_t i = 0; i < k; ++i) {
      const VertexId a = plans[i].a;
      const VertexId b = plans[i].b;
      for (const LabelEntry& e : Labels(a)) hub_of_a[e.hub_rank] = 1;
      for (const LabelEntry& e : Labels(b)) hub_of_b[e.hub_rank] = 1;
      for (int s = 0; s < 2; ++s) {
        const VertexId near = s == 0 ? a : b;
        const VertexId far = s == 0 ? b : a;
        repair::ValidateDeletionSeeds(
            Forward(), plans[i].sides[s].full_ranks,
            plans[i].sides[s].subtract_ranks, Labels(near), near, far,
            hub_of_a, hub_of_b, &seed_ok, &seed_dist, &seed_count,
            &seed_far);
      }
      for (const LabelEntry& e : Labels(a)) hub_of_a[e.hub_rank] = 0;
      for (const LabelEntry& e : Labels(b)) hub_of_b[e.hub_rank] = 0;
    }
  }

  // ---- Pre-deletion endpoint distances for the distance-change
  // filter, captured while the edges still exist (batched path only —
  // the fallback above must not pay for them). Only the full senders'
  // distances are ever read, so each side keeps a compact array
  // parallel to its full_ranks; the n-sized BFS buffer is transient.
  for (size_t i = 0; i < k; ++i) {
    const bool need_pre =
        (filter[i][0] && !plans[i].sides[0].full_ranks.empty()) ||
        (filter[i][1] && !plans[i].sides[1].full_ranks.empty());
    if (!need_pre) continue;
    for (int s = 0; s < 2; ++s) {
      const std::vector<uint32_t> dense = repair::ViewBfsDistances(
          Forward(), s == 0 ? plans[i].a : plans[i].b);
      SparseSide& side = plans[i].sides[s];
      side.full_pre.reserve(side.full_ranks.size());
      for (const Rank r : side.full_ranks) {
        side.full_pre.push_back(dense[order_.VertexAt(r)]);
      }
    }
  }

  // ---- Topology: the final deletion state every re-run repairs
  // against (the planner guarantees the edges exist).
  for (const auto& [a, b] : edges) {
    PSPC_CHECK(graph_.RemoveEdge(a, b).ok());
  }

  // ---- Exact distance-change filter per edge (post-deletion graph).
  // Sound for single-involvement hubs only: a pair involving a hub of
  // one region changes through that region's edge alone, so the
  // single-edge certificates carry over verbatim (multi-region hubs
  // escalate below and ignore the filter verdict).
  std::vector<uint8_t> needs_full(n, 0);
  for (size_t i = 0; i < k; ++i) {
    if (filter[i][0] && !plans[i].sides[0].full_ranks.empty()) {
      repair::MarkDistanceChanges(
          Forward(), plans[i].sides[0].full_ranks, plans[i].sides[0].full_pre,
          plans[i].sides[1].full_ranks, plans[i].sides[1].full_pre,
          &needs_full);
    }
    if (filter[i][1] && !plans[i].sides[1].full_ranks.empty()) {
      repair::MarkDistanceChanges(
          Forward(), plans[i].sides[1].full_ranks, plans[i].sides[1].full_pre,
          plans[i].sides[0].full_ranks, plans[i].sides[0].full_pre,
          &needs_full);
    }
  }

  std::vector<DeletionTask> tasks;
  for (size_t i = 0; i < involvements.size();) {
    size_t j = i;
    while (j < involvements.size() && involvements[j].rank == involvements[i].rank) {
      ++j;
    }
    const Rank rank = involvements[i].rank;
    if (j - i == 1) {
      const Involvement& item = involvements[i];
      const auto opp = static_cast<uint8_t>(1 - item.side);
      if (item.cls == 1 &&
          (!filter[item.edge][item.side] || needs_full[rank] != 0)) {
        DeletionTask task;
        task.rank = rank;
        task.regions.push_back({item.edge, opp});
        tasks.push_back(std::move(task));
      } else if (item.cls != -1 && seed_ok[rank] != 0) {
        // Subtractive sender, or a full sender the filter downgraded.
        DeletionTask task;
        task.rank = rank;
        task.subtract = true;
        task.start = seed_far[rank];
        task.seed_dist = seed_dist[rank];
        task.seed_count = seed_count[rank];
        task.regions.push_back({item.edge, opp});
        tasks.push_back(std::move(task));
      }
      // else: receiver, or a sender with provably nothing to re-run.
    } else {
      DeletionTask task;
      task.rank = rank;
      for (size_t t = i; t < j; ++t) {
        task.regions.push_back(
            {involvements[t].edge,
             static_cast<uint8_t>(1 - involvements[t].side)});
      }
      tasks.push_back(std::move(task));
    }
    i = j;
  }

  // ---- Depth caps for subtractive tasks: per edge, the farthest
  // entry distance any opposite-region vertex stores for the hub
  // (pre-repair labels, as in the single-update path). Tasks whose cap
  // cannot reach the seed depth provably have nothing to fix.
  std::vector<std::vector<size_t>> subtract_by_edge(k);
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].subtract) {
      subtract_by_edge[tasks[t].regions[0].first].push_back(t);
    }
  }
  for (size_t e = 0; e < k; ++e) {
    if (subtract_by_edge[e].empty()) continue;
    for (const size_t t : subtract_by_edge[e]) {
      // 1 = hub on the a-side (targets the b-side), 2 = the reverse.
      subtract_side_[tasks[t].rank] = tasks[t].regions[0].second == 1 ? 1 : 2;
    }
    for (const VertexId v : plans[e].sides[1].touched) {
      for (const LabelEntry& le : Labels(v)) {
        if (subtract_side_[le.hub_rank] == 1) {
          bucket_max_[le.hub_rank] =
              std::max<uint32_t>(bucket_max_[le.hub_rank], le.dist);
        }
      }
    }
    for (const VertexId v : plans[e].sides[0].touched) {
      for (const LabelEntry& le : Labels(v)) {
        if (subtract_side_[le.hub_rank] == 2) {
          bucket_max_[le.hub_rank] =
              std::max<uint32_t>(bucket_max_[le.hub_rank], le.dist);
        }
      }
    }
    for (const size_t t : subtract_by_edge[e]) {
      tasks[t].depth_cap = bucket_max_[tasks[t].rank];
      subtract_side_[tasks[t].rank] = 0;
      bucket_max_[tasks[t].rank] = 0;
    }
  }
  std::erase_if(tasks, [](const DeletionTask& t) {
    return t.subtract && t.depth_cap < t.seed_dist;
  });

  // `tasks` is in ascending global rank order (one task per rank group
  // of the rank-sorted involvements), which keeps pruning sound: a
  // re-run consults higher-ranked labels, which must already be
  // repaired.
  for (const DeletionTask& task : tasks) RunDeletionTask(task, plans);
}

template <class GraphT>
void DynamicIndex<GraphT>::RunDeletionTask(
    const DeletionTask& task, const std::vector<DeletedEdgePlan>& plans) {
  // Materialize the write region: the union of the task's regions.
  RepairScratch& s = scratch_;
  for (const VertexId v : s.region_touched) s.region_flags[v] = 0;
  s.region_touched.clear();
  for (const auto& [edge, side] : task.regions) {
    for (const VertexId v : plans[edge].sides[side].touched) {
      if (s.region_flags[v] == 0) {
        s.region_flags[v] = 1;
        s.region_touched.push_back(v);
      }
    }
  }
  const RegionView region{s.region_flags.data(), &s.region_touched};
  const ForwardView view = Forward();
  if (task.subtract &&
      repair::SubtractiveDeleteRepair(view, task.rank, task.start,
                                      task.seed_dist, task.seed_count,
                                      task.depth_cap, region, s, &stats_)) {
    return;
  }
  repair::RepairHubAfterDeletion(view, task.rank, region, s, &stats_,
                                 SweepThreads());
}

template void DynamicIndex<Graph>::RepairDeletionsBatch(
    const std::vector<std::pair<VertexId, VertexId>>& edges);

}  // namespace pspc
