#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/landmark_filter.h"
#include "src/core/scheduler.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/order/degree_order.h"
#include "src/order/vertex_order.h"

namespace pspc {
namespace {

// --------------------------------------------------- LandmarkFilter --

using Verdict = LandmarkFilter::Verdict;

TEST(LandmarkFilterTest, UnknownForEmptyFilterAndNonLandmarkHubs) {
  const LandmarkFilter empty;
  EXPECT_EQ(empty.NumLandmarks(), 0u);
  EXPECT_EQ(empty.Probe(0, 0, 5), Verdict::kUnknown);

  const Graph g = GenerateBarabasiAlbert(40, 3, 7);
  const LandmarkFilter filter(g, DegreeOrder(g), 4, 1);
  for (VertexId u = 0; u < 40; ++u) {
    EXPECT_EQ(filter.Probe(u, 4, 1), Verdict::kUnknown);
    EXPECT_EQ(filter.Probe(u, 39, 3), Verdict::kUnknown);
  }
}

TEST(LandmarkFilterTest, NeverPrunesTrueShortestCandidates) {
  // Soundness: kPrune for hub w must imply dist(u, w) < d.
  const Graph g = GenerateErdosRenyi(60, 150, 3);
  const VertexOrder order = DegreeOrder(g);
  const LandmarkFilter filter(g, order, 8, 2);
  for (Rank hub_rank = 0; hub_rank < 60; ++hub_rank) {
    const auto dist = BfsDistances(g, order.VertexAt(hub_rank));
    for (VertexId u = 0; u < 60; ++u) {
      if (dist[u] == kInfDistance) continue;
      EXPECT_NE(filter.Probe(u, hub_rank, dist[u]), Verdict::kPrune)
          << "filter pruned hub rank " << hub_rank << " at the true dist("
          << u << ") = " << dist[u];
    }
  }
}

TEST(LandmarkFilterTest, ExactWhenHubIsLandmark) {
  // A landmark hub's table row is its exact BFS distance, so the probe
  // decides both ways: prune above the true distance, keep at it.
  const Graph g = GenerateBarabasiAlbert(80, 3, 5);
  const VertexOrder order = DegreeOrder(g);
  const LandmarkFilter filter(g, order, 4, 2);
  for (Rank hub_rank = 0; hub_rank < 4; ++hub_rank) {
    const VertexId landmark = order.VertexAt(hub_rank);
    const auto dist = BfsDistances(g, landmark);
    for (VertexId u = 0; u < 80; ++u) {
      if (dist[u] == kInfDistance || u == landmark) continue;
      EXPECT_EQ(filter.Probe(u, hub_rank, static_cast<Distance>(dist[u] + 1)),
                Verdict::kPrune);
      EXPECT_EQ(filter.Probe(u, hub_rank, dist[u]), Verdict::kKeep);
    }
  }
}

TEST(LandmarkFilterTest, CapsAtVertexCount) {
  const Graph g = GeneratePath(5);
  const LandmarkFilter filter(g, IdentityOrder(5), 100, 1);
  EXPECT_EQ(filter.NumLandmarks(), 5u);
  EXPECT_EQ(filter.SizeBytes(), 5u * 5u * sizeof(Distance));
}

TEST(LandmarkFilterTest, HandlesDisconnectedPairsSafely) {
  const Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  const LandmarkFilter filter(g, IdentityOrder(4), 4, 1);
  // No landmark connects the components; no false pruning.
  for (Rank hub_rank = 2; hub_rank < 4; ++hub_rank) {
    EXPECT_NE(filter.Probe(0, hub_rank, 10), Verdict::kPrune);
    EXPECT_NE(filter.Probe(1, hub_rank, 10), Verdict::kPrune);
  }
}

// -------------------------------------------------------- Scheduler --

std::vector<Rank> IdentityRanks(VertexId n) {
  std::vector<Rank> ranks(n);
  for (VertexId v = 0; v < n; ++v) ranks[v] = v;
  return ranks;
}

TEST(SchedulerTest, StaticPlanKeepsNodeOrder) {
  const std::vector<VertexId> active{4, 1, 3};
  const auto ranks = IdentityRanks(5);
  const auto plan =
      PlanIteration(ScheduleKind::kStatic, active, {}, ranks);
  EXPECT_FALSE(plan.dynamic);
  EXPECT_EQ(plan.sequence, (std::vector<VertexId>{1, 3, 4}));
}

TEST(SchedulerTest, DynamicPlanKeepsNodeOrder) {
  const std::vector<VertexId> active{2, 0};
  const auto plan =
      PlanIteration(ScheduleKind::kDynamic, active, {}, IdentityRanks(3));
  EXPECT_TRUE(plan.dynamic);
  EXPECT_EQ(plan.sequence, (std::vector<VertexId>{0, 2}));
}

TEST(SchedulerTest, CostAwareSortsHeaviestFirst) {
  const std::vector<VertexId> active{0, 1, 2, 3};
  const std::vector<uint64_t> costs{5, 50, 1, 50};
  const auto plan =
      PlanIteration(ScheduleKind::kCostAware, active, costs, IdentityRanks(4));
  EXPECT_TRUE(plan.dynamic);
  // 50-cost vertices first (rank tie-break: 1 before 3), then 5, then 1.
  EXPECT_EQ(plan.sequence, (std::vector<VertexId>{1, 3, 0, 2}));
}

TEST(SchedulerTest, PlansCoverActiveSetExactly) {
  const std::vector<VertexId> active{7, 2, 9, 4};
  const std::vector<uint64_t> costs{1, 2, 3, 4};
  for (ScheduleKind kind : {ScheduleKind::kStatic, ScheduleKind::kDynamic,
                            ScheduleKind::kCostAware}) {
    const auto plan = PlanIteration(kind, active, costs, IdentityRanks(10));
    std::multiset<VertexId> expect(active.begin(), active.end());
    std::multiset<VertexId> got(plan.sequence.begin(), plan.sequence.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(SchedulerTest, EmptyActiveSet) {
  const auto plan =
      PlanIteration(ScheduleKind::kCostAware, {}, {}, IdentityRanks(4));
  EXPECT_TRUE(plan.sequence.empty());
}

}  // namespace
}  // namespace pspc
