#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/baseline/bidirectional_spc.h"
#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/label/path_enumeration.h"
#include "src/label/query_engine.h"
#include "src/order/degree_order.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

using pspc::testing::AllPairs;

SpcIndex MakeIndex(const Graph& g) {
  BuildOptions o;
  o.num_landmarks = 4;
  return BuildPspcIndex(g, DegreeOrder(g), o).index;
}

// ------------------------------------------------ BidirectionalSpc --

TEST(BidirectionalSpcTest, MatchesOracleOnClassics) {
  for (const Graph& g : {GeneratePath(9), GenerateCycle(10),
                         GenerateComplete(6), GenerateStar(7),
                         GenerateDiamondLadder(6, 3)}) {
    for (const auto& [s, t] : AllPairs(g.NumVertices())) {
      ASSERT_EQ(BidirectionalSpc(g, s, t), BfsSpcPair(g, s, t))
          << "pair (" << s << "," << t << ")";
    }
  }
}

TEST(BidirectionalSpcTest, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = GenerateErdosRenyi(70, 150, seed);
    for (const auto& [s, t] : AllPairs(70)) {
      ASSERT_EQ(BidirectionalSpc(g, s, t), BfsSpcPair(g, s, t))
          << "seed " << seed << " pair (" << s << "," << t << ")";
    }
  }
}

TEST(BidirectionalSpcTest, SelfAndDisconnected) {
  const Graph g = MakeGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  EXPECT_EQ(BidirectionalSpc(g, 2, 2), (SpcResult{0, 1}));
  EXPECT_EQ(BidirectionalSpc(g, 0, 4), (SpcResult{kInfSpcDistance, 0}));
  EXPECT_EQ(BidirectionalSpc(g, 2, 4), (SpcResult{2, 1}));
}

TEST(BidirectionalSpcTest, AsymmetricComponentSizes) {
  // s in a tiny component appendage, t deep in a big blob: exercises
  // the smaller-frontier alternation and the exhausted-side fallback.
  GraphBuilder b(64);
  const Graph blob = GenerateComplete(60);
  for (VertexId u = 0; u < 60; ++u) {
    for (VertexId v : blob.Neighbors(u)) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  b.AddEdge(0, 60);
  b.AddEdge(60, 61);
  b.AddEdge(61, 62);
  b.AddEdge(62, 63);
  const Graph g = b.Build();
  for (VertexId t = 0; t < 60; ++t) {
    ASSERT_EQ(BidirectionalSpc(g, 63, t), BfsSpcPair(g, 63, t));
  }
}

TEST(BidirectionalSpcTest, AgreesWithIndexOnWorkload) {
  const Graph g = GenerateBarabasiAlbert(300, 3, 77);
  const SpcIndex index = MakeIndex(g);
  for (const auto& [s, t] : MakeRandomQueries(300, 400, 5)) {
    ASSERT_EQ(BidirectionalSpc(g, s, t), index.Query(s, t));
  }
}

// ------------------------------------------- EnumerateShortestPaths --

bool IsSimplePath(const Graph& g, const std::vector<VertexId>& p) {
  std::set<VertexId> seen(p.begin(), p.end());
  if (seen.size() != p.size()) return false;
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    if (!g.HasEdge(p[i], p[i + 1])) return false;
  }
  return true;
}

TEST(PathEnumerationTest, CycleHasExactlyTwoPaths) {
  const Graph g = GenerateCycle(8);
  const SpcIndex index = MakeIndex(g);
  const auto paths = EnumerateShortestPaths(g, index, 0, 4, 100);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(paths[1], (std::vector<VertexId>{0, 7, 6, 5, 4}));
}

TEST(PathEnumerationTest, AllPathsAreSimpleShortestAndDistinct) {
  const Graph g = GenerateErdosRenyi(50, 140, 11);
  const SpcIndex index = MakeIndex(g);
  for (const auto& [s, t] : AllPairs(50)) {
    const SpcResult r = index.Query(s, t);
    if (r.distance == kInfSpcDistance) continue;
    const auto paths = EnumerateShortestPaths(g, index, s, t, 50);
    const size_t expected = std::min<Count>(r.count, 50);
    ASSERT_EQ(paths.size(), expected) << s << "," << t;
    std::set<std::vector<VertexId>> uniq(paths.begin(), paths.end());
    ASSERT_EQ(uniq.size(), paths.size());
    for (const auto& p : paths) {
      ASSERT_EQ(p.size(), r.distance + 1u);
      ASSERT_EQ(p.front(), s);
      ASSERT_EQ(p.back(), t);
      ASSERT_TRUE(IsSimplePath(g, p));
    }
  }
}

TEST(PathEnumerationTest, LimitTruncates) {
  const Graph g = GenerateDiamondLadder(5, 4);  // 64 shortest paths
  const SpcIndex index = MakeIndex(g);
  const VertexId t = g.NumVertices() - 1;
  EXPECT_EQ(EnumerateShortestPaths(g, index, 0, t, 10).size(), 10u);
  EXPECT_EQ(EnumerateShortestPaths(g, index, 0, t, 1000).size(), 64u);
  EXPECT_TRUE(EnumerateShortestPaths(g, index, 0, t, 0).empty());
}

TEST(PathEnumerationTest, SelfAndUnreachable) {
  const Graph g = MakeGraph(4, {{0, 1}, {2, 3}});
  const SpcIndex index = MakeIndex(g);
  const auto self = EnumerateShortestPaths(g, index, 1, 1, 5);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], (std::vector<VertexId>{1}));
  EXPECT_TRUE(EnumerateShortestPaths(g, index, 0, 3, 5).empty());
}

TEST(PathEnumerationTest, DeterministicLexicographicOrder) {
  const Graph g = GenerateWattsStrogatz(60, 3, 0.2, 21);
  const SpcIndex index = MakeIndex(g);
  const auto a = EnumerateShortestPaths(g, index, 3, 40, 25);
  const auto b = EnumerateShortestPaths(g, index, 3, 40, 25);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

}  // namespace
}  // namespace pspc
