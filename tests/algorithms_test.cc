#include <gtest/gtest.h>

#include "src/baseline/bfs_spc.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"

namespace pspc {
namespace {

// ------------------------------------------------------------- BFS --

TEST(BfsTest, PathDistances) {
  const Graph g = GeneratePath(5);
  const auto d = BfsDistances(g, 0);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(BfsTest, UnreachableIsInfinite) {
  const Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  const auto d = BfsDistances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kInfDistance);
  EXPECT_EQ(d[3], kInfDistance);
}

// ---------------------------------------------- Connected components --

TEST(ComponentsTest, CountsComponents) {
  const Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  VertexId num = 0;
  const auto comp = ConnectedComponents(g, &num);
  EXPECT_EQ(num, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[5]);
}

// --------------------------------------------------------- Diameter --

TEST(DiameterTest, ExactOnPath) {
  EXPECT_EQ(ExactDiameter(GeneratePath(10)), 9u);
}

TEST(DiameterTest, ExactOnCycle) {
  EXPECT_EQ(ExactDiameter(GenerateCycle(10)), 5u);
}

TEST(DiameterTest, EstimateLowerBoundsExact) {
  const Graph g = GenerateErdosRenyi(200, 500, 3);
  const Distance est = EstimateDiameter(g, 4, 1);
  EXPECT_LE(est, ExactDiameter(g));
  EXPECT_GT(est, 0u);
}

TEST(DiameterTest, DoubleSweepExactOnTrees) {
  const Graph g = GenerateTree(64, 2);
  EXPECT_EQ(EstimateDiameter(g, 2, 5), ExactDiameter(g));
}

TEST(DiameterTest, EstimateSkipsIsolatedStart) {
  // A 5-vertex path among 200 isolated vertices: a start drawn among
  // the isolated ones must move on to the path.
  const Graph g =
      MakeGraph(205, {{100, 101}, {101, 102}, {102, 103}, {103, 104}});
  for (uint64_t seed : {1u, 2u, 3u, 42u}) {
    EXPECT_EQ(EstimateDiameter(g, 4, seed), 4u) << "seed " << seed;
  }
}

// ---------------------------------------------------------- BFS SPC --

TEST(BfsSpcTest, CycleHasTwoWaysAround) {
  const Graph g = GenerateCycle(6);
  // Opposite vertices: two shortest paths of length 3.
  EXPECT_EQ(BfsSpcPair(g, 0, 3), (SpcResult{3, 2}));
  // Adjacent: one path.
  EXPECT_EQ(BfsSpcPair(g, 0, 1), (SpcResult{1, 1}));
}

TEST(BfsSpcTest, CompleteGraphPairs) {
  const Graph g = GenerateComplete(6);
  EXPECT_EQ(BfsSpcPair(g, 2, 4), (SpcResult{1, 1}));
}

TEST(BfsSpcTest, DiamondLadderExponentialCounts) {
  const Graph g = GenerateDiamondLadder(5, 4);  // 3 interior layers
  const VertexId t = g.NumVertices() - 1;
  EXPECT_EQ(BfsSpcPair(g, 0, t), (SpcResult{4, 64}));  // 4^3
}

TEST(BfsSpcTest, SelfPairIsZeroOne) {
  const Graph g = GeneratePath(3);
  EXPECT_EQ(BfsSpcPair(g, 1, 1), (SpcResult{0, 1}));
}

TEST(BfsSpcTest, DisconnectedPair) {
  const Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(BfsSpcPair(g, 0, 3), (SpcResult{kInfSpcDistance, 0}));
}

TEST(BfsSpcTest, PaperFigure2Example) {
  // Example 1 corrected by Table II's own label arithmetic: common hubs
  // of L(v10) and L(v7) are v1 (1+2=3, count 1*2) and v7 (3+0=3,
  // count 2*1), so SPC(v10, v7) = (3, 4). (The prose misadds the v1
  // leg as 2+2.) The four paths: v10-v1-v4-v7, v10-v1-v5-v7,
  // v10-v2-v4-v7, v10-v9-v8-v7.
  const Graph g = PaperFigure2Graph();
  EXPECT_EQ(BfsSpcPair(g, 9, 6), (SpcResult{3, 4}));
}

}  // namespace
}  // namespace pspc
