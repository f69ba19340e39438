#include <gtest/gtest.h>

#include <vector>

#include "src/analytics/betweenness.h"
#include "src/analytics/group_betweenness.h"
#include "src/analytics/poi_ranking.h"
#include "src/baseline/brandes.h"
#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/order/degree_order.h"

namespace pspc {
namespace {

SpcIndex MakeIndex(const Graph& g) {
  BuildOptions o;
  o.num_landmarks = 4;
  return BuildPspcIndex(g, DegreeOrder(g), o).index;
}

// ------------------------------------------------------ Betweenness --

TEST(BetweennessTest, ExactMatchesBrandesOnStar) {
  const Graph g = GenerateStar(6);
  const SpcIndex index = MakeIndex(g);
  const auto brandes = BrandesBetweenness(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_NEAR(BetweennessExact(index, v), brandes[v], 1e-9) << "v=" << v;
  }
}

TEST(BetweennessTest, ExactMatchesBrandesOnRandomGraph) {
  const Graph g = GenerateErdosRenyi(40, 100, 7);
  const SpcIndex index = MakeIndex(g);
  const auto brandes = BrandesBetweenness(g);
  const auto via_index = AllBetweennessExact(index);
  for (VertexId v = 0; v < 40; ++v) {
    EXPECT_NEAR(via_index[v], brandes[v], 1e-6) << "v=" << v;
  }
}

TEST(BetweennessTest, ExactMatchesBrandesWithFractionalSplits) {
  // The 4-cycle has fractional dependencies (two shortest paths per
  // opposite pair) — catches missing count division.
  const Graph g = GenerateCycle(4);
  const SpcIndex index = MakeIndex(g);
  const auto brandes = BrandesBetweenness(g);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_NEAR(BetweennessExact(index, v), brandes[v], 1e-9);
  }
}

TEST(BetweennessTest, SampledConvergesToExact) {
  const Graph g = GenerateBarabasiAlbert(60, 3, 9);
  const SpcIndex index = MakeIndex(g);
  // The hub vertex (rank 0) has substantial betweenness.
  const VertexId hub = index.Order().VertexAt(0);
  const double exact = BetweennessExact(index, hub);
  const double sampled = BetweennessSampled(index, hub, 4000, 123);
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(sampled / exact, 1.0, 0.25);
}

TEST(BetweennessTest, LeafHasZeroBetweenness) {
  const Graph g = GenerateStar(5);
  const SpcIndex index = MakeIndex(g);
  EXPECT_DOUBLE_EQ(BetweennessExact(index, 3), 0.0);
}

// ------------------------------------------------ Group betweenness --

TEST(GroupBetweennessTest, FractionIsOneWhenEndpointInGroup) {
  const Graph g = GeneratePath(4);
  const SpcIndex index = MakeIndex(g);
  EXPECT_DOUBLE_EQ(GroupPathFraction(g, index, {0}, 0, 3), 1.0);
}

TEST(GroupBetweennessTest, FractionZeroWhenGroupOffPath) {
  // Path 0-1-2 plus detached-ish vertex 3 hanging off 0.
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {0, 3}});
  const SpcIndex index = MakeIndex(g);
  EXPECT_DOUBLE_EQ(GroupPathFraction(g, index, {3}, 0, 2), 0.0);
}

TEST(GroupBetweennessTest, FractionSplitsAcrossParallelRoutes) {
  // 4-cycle: s=0, t=2 have two shortest paths (via 1 and via 3).
  const Graph g = GenerateCycle(4);
  const SpcIndex index = MakeIndex(g);
  EXPECT_DOUBLE_EQ(GroupPathFraction(g, index, {1}, 0, 2), 0.5);
  EXPECT_DOUBLE_EQ(GroupPathFraction(g, index, {1, 3}, 0, 2), 1.0);
}

TEST(GroupBetweennessTest, SingletonGroupMatchesVertexBetweenness) {
  // For C = {v}, B(C) equals v's betweenness plus its endpoint pairs'
  // fractions (endpoint convention: fraction 1). Compare on a path
  // where the arithmetic is transparent: B({2}) on 0-..-4.
  const Graph g = GeneratePath(5);
  const SpcIndex index = MakeIndex(g);
  const double bc = BetweennessExact(index, 2);        // 4 pairs
  const double endpoint_pairs = 4.0;                   // pairs with v=2
  EXPECT_DOUBLE_EQ(GroupBetweennessExact(g, index, {2}),
                   bc + endpoint_pairs);
}

TEST(GroupBetweennessTest, GroupDominatesItsMembers) {
  const Graph g = GenerateErdosRenyi(30, 80, 11);
  const SpcIndex index = MakeIndex(g);
  const double single = GroupBetweennessExact(g, index, {3});
  const double pair = GroupBetweennessExact(g, index, {3, 7});
  EXPECT_GE(pair, single - 1e-9);  // monotone in the group
}

TEST(GroupBetweennessTest, SampledApproximatesExact) {
  const Graph g = GenerateBarabasiAlbert(40, 2, 13);
  const SpcIndex index = MakeIndex(g);
  const std::vector<VertexId> group{index.Order().VertexAt(0),
                                    index.Order().VertexAt(1)};
  const double exact = GroupBetweennessExact(g, index, group);
  const double sampled =
      GroupBetweennessSampled(g, index, group, 3000, 321);
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(sampled / exact, 1.0, 0.25);
}

// ------------------------------------------------------ POI ranking --

TEST(PoiRankingTest, DistanceDominates) {
  const Graph g = GeneratePath(6);
  const SpcIndex index = MakeIndex(g);
  const auto top = TopKPoi(index, 0, {5, 2, 4}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].poi, 2u);
  EXPECT_EQ(top[1].poi, 4u);
  EXPECT_EQ(top[2].poi, 5u);
}

TEST(PoiRankingTest, CountBreaksDistanceTies) {
  // Diamond: 0-1-3, 0-2-3 and a separate arm 0-4-5: both 3 and 5 are
  // at distance 2 from 0, but 3 has two shortest routes.
  const Graph g = MakeGraph(6, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}});
  const SpcIndex index = MakeIndex(g);
  const auto top = TopKPoi(index, 0, {5, 3}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].poi, 3u);  // count 2 beats count 1
  EXPECT_EQ(top[0].route_count, 2u);
  EXPECT_EQ(top[1].poi, 5u);
}

TEST(PoiRankingTest, DropsUnreachableCandidates) {
  const Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  const SpcIndex index = MakeIndex(g);
  const auto top = TopKPoi(index, 0, {1, 2, 3}, 3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].poi, 1u);
}

TEST(PoiRankingTest, RespectsK) {
  const Graph g = GenerateComplete(6);
  const SpcIndex index = MakeIndex(g);
  EXPECT_EQ(TopKPoi(index, 0, {1, 2, 3, 4, 5}, 2).size(), 2u);
}

TEST(PoiRankingTest, IdBreaksFullTies) {
  const Graph g = GenerateComplete(5);
  const SpcIndex index = MakeIndex(g);
  const auto top = TopKPoi(index, 0, {4, 2, 3}, 3);
  EXPECT_EQ(top[0].poi, 2u);
  EXPECT_EQ(top[1].poi, 3u);
  EXPECT_EQ(top[2].poi, 4u);
}

}  // namespace
}  // namespace pspc
