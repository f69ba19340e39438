#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/reduce/equivalence.h"
#include "src/reduce/one_shell.h"
#include "src/reduce/reduced_index.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

using pspc::testing::AllPairs;

ReductionOptions Opts(bool one_shell, bool equivalence) {
  ReductionOptions o;
  o.use_one_shell = one_shell;
  o.use_equivalence = equivalence;
  o.build.num_landmarks = 4;
  return o;
}

// --------------------------------------------------------- 1-shell --

TEST(OneShellTest, LollipopPeelsTail) {
  // Triangle {0,1,2} with tail 2-3-4.
  const Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto shell = OneShellReduction::Build(g);
  EXPECT_EQ(shell.NumCoreVertices(), 3u);
  EXPECT_EQ(shell.NumFringeVertices(), 2u);
  EXPECT_TRUE(shell.IsCore(0));
  EXPECT_FALSE(shell.IsCore(3));
  EXPECT_EQ(shell.Anchor(3), 2u);
  EXPECT_EQ(shell.Anchor(4), 2u);
  EXPECT_EQ(shell.Depth(3), 1u);
  EXPECT_EQ(shell.Depth(4), 2u);
  EXPECT_EQ(shell.Core().NumEdges(), 3u);  // the triangle survives
}

TEST(OneShellTest, PureTreeKeepsOneCoreVertexPerComponent) {
  const Graph g = GenerateTree(15, 2);
  const auto shell = OneShellReduction::Build(g);
  EXPECT_EQ(shell.NumCoreVertices(), 1u);
  EXPECT_EQ(shell.NumFringeVertices(), 14u);
}

TEST(OneShellTest, CycleIsAllCore) {
  const auto shell = OneShellReduction::Build(GenerateCycle(8));
  EXPECT_EQ(shell.NumCoreVertices(), 8u);
  EXPECT_EQ(shell.NumFringeVertices(), 0u);
}

TEST(OneShellTest, TreeQueryViaLca) {
  // Star of paths: anchor 0 (core after peel? no - pure star peels to
  // center); use a lollipop so the anchor is a real core vertex.
  const Graph g = MakeGraph(
      7, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {3, 5}, {5, 6}});
  const auto shell = OneShellReduction::Build(g);
  // Tree: 2 <- 3 <- {4, 5 <- 6}; anchor of all is 2.
  EXPECT_EQ(shell.TreeQuery(4, 6), (SpcResult{3, 1}));  // 4-3-5-6
  EXPECT_EQ(shell.TreeQuery(4, 3), (SpcResult{1, 1}));
  EXPECT_EQ(shell.TreeQuery(6, 2), (SpcResult{3, 1}));  // 6-5-3-2
}

TEST(OneShellTest, IsolatedVertexStaysCore) {
  const Graph g = MakeGraph(3, {{0, 1}});
  const auto shell = OneShellReduction::Build(g);
  EXPECT_TRUE(shell.IsCore(2));
}

// ----------------------------------------------------- Equivalence --

TEST(EquivalenceTest, StarLeavesAreFalseTwins) {
  const Graph g = GenerateStar(6);
  const auto eq = EquivalenceReduction::Build(g);
  EXPECT_EQ(eq.NumClasses(), 2u);  // center + leaf class
  const VertexId leaf_class = eq.ClassOf(1);
  for (VertexId leaf = 2; leaf <= 6; ++leaf) {
    EXPECT_EQ(eq.ClassOf(leaf), leaf_class);
  }
  EXPECT_EQ(eq.Weight(leaf_class), 6u);
  EXPECT_FALSE(eq.ClassAdjacent(leaf_class));
  // Two leaves: distance 2 through the single center.
  EXPECT_EQ(eq.SameClassQuery(leaf_class), (SpcResult{2, 1}));
}

TEST(EquivalenceTest, CliqueCollapsesToOneTrueTwinClass) {
  const Graph g = GenerateComplete(5);
  const auto eq = EquivalenceReduction::Build(g);
  EXPECT_EQ(eq.NumClasses(), 1u);
  EXPECT_TRUE(eq.ClassAdjacent(0));
  EXPECT_EQ(eq.Weight(0), 5u);
  EXPECT_EQ(eq.SameClassQuery(0), (SpcResult{1, 1}));
}

TEST(EquivalenceTest, PathHasNoTwins) {
  const Graph g = GeneratePath(6);
  const auto eq = EquivalenceReduction::Build(g);
  // End vertices 0 and 5 have different neighborhoods ({1} vs {4}).
  EXPECT_EQ(eq.NumClasses(), 6u);
}

TEST(EquivalenceTest, FalseTwinPairCountsCommonNeighbors) {
  // 0 and 1 both adjacent to {2,3}, not to each other: K(2,2).
  const Graph g = MakeGraph(4, {{0, 2}, {0, 3}, {1, 2}, {1, 3}});
  const auto eq = EquivalenceReduction::Build(g);
  EXPECT_EQ(eq.NumClasses(), 2u);  // {0,1} and {2,3}
  const VertexId c01 = eq.ClassOf(0);
  EXPECT_EQ(eq.ClassOf(1), c01);
  EXPECT_EQ(eq.SameClassQuery(c01), (SpcResult{2, 2}));  // via 2 and 3
}

TEST(EquivalenceTest, IsolatedVerticesFormDisconnectedClass) {
  const Graph g = MakeGraph(4, {{0, 1}});
  const auto eq = EquivalenceReduction::Build(g);
  const VertexId iso = eq.ClassOf(2);
  EXPECT_EQ(eq.ClassOf(3), iso);
  EXPECT_EQ(eq.SameClassQuery(iso), (SpcResult{kInfSpcDistance, 0}));
}

TEST(EquivalenceTest, MixedTwinsStayDisjoint) {
  // Triangle {0,1,2} plus pendant 3 on 0: no twins anywhere... actually
  // 1 and 2 are true twins (N[1] = N[2] = {0,1,2}).
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}});
  const auto eq = EquivalenceReduction::Build(g);
  EXPECT_EQ(eq.ClassOf(1), eq.ClassOf(2));
  EXPECT_NE(eq.ClassOf(0), eq.ClassOf(1));
  EXPECT_NE(eq.ClassOf(3), eq.ClassOf(1));
  EXPECT_TRUE(eq.ClassAdjacent(eq.ClassOf(1)));
}

// -------------------------------------------------- ReducedSpcIndex --

TEST(ReducedIndexTest, LollipopAllPairs) {
  const Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto idx = ReducedSpcIndex::Build(g, Opts(true, true));
  for (const auto& [s, t] : AllPairs(5)) {
    EXPECT_EQ(idx.Query(s, t), BfsSpcPair(g, s, t))
        << "pair (" << s << "," << t << ")";
  }
}

TEST(ReducedIndexTest, EveryReductionComboIsExact) {
  // A clustered social graph, and a road grid with dead ends for the
  // 1-shell, indexed under the hybrid order that roads use.
  const std::pair<Graph, OrderingScheme> cases[] = {
      {GenerateClusteredBa(90, 3, 0.3, 19), OrderingScheme::kDegree},
      {GenerateRoadGrid(10, 10, 0.7, 0.05, 5), OrderingScheme::kHybrid}};
  for (const auto& [g, ordering] : cases) {
    for (bool shell : {false, true}) {
      for (bool equiv : {false, true}) {
        ReductionOptions o = Opts(shell, equiv);
        o.build.ordering = ordering;
        const auto idx = ReducedSpcIndex::Build(g, o);
        for (const auto& [s, t] : AllPairs(g.NumVertices())) {
          ASSERT_EQ(idx.Query(s, t), BfsSpcPair(g, s, t))
              << g.NumVertices() << " vertices, shell=" << shell
              << " equiv=" << equiv << " pair (" << s << "," << t << ")";
        }
      }
    }
  }
}

TEST(ReducedIndexTest, TreeHeavyGraphShrinksALot) {
  // Star of long paths: everything but one vertex peels away.
  GraphBuilder b(41);
  for (VertexId arm = 0; arm < 4; ++arm) {
    VertexId prev = 0;
    for (VertexId i = 0; i < 10; ++i) {
      const VertexId v = 1 + arm * 10 + i;
      b.AddEdge(prev, v);
      prev = v;
    }
  }
  const Graph g = b.Build();
  const auto idx = ReducedSpcIndex::Build(g, Opts(true, false));
  EXPECT_EQ(idx.NumReducedVertices(), 1u);
  for (const auto& [s, t] : AllPairs(41)) {
    ASSERT_EQ(idx.Query(s, t), BfsSpcPair(g, s, t));
  }
}

TEST(ReducedIndexTest, TwinHeavyGraphShrinksALot) {
  // Complete bipartite K(3,12): both sides collapse to one class each.
  GraphBuilder b(15);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 3; v < 15; ++v) b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  const auto idx = ReducedSpcIndex::Build(g, Opts(false, true));
  EXPECT_EQ(idx.NumReducedVertices(), 2u);
  for (const auto& [s, t] : AllPairs(15)) {
    ASSERT_EQ(idx.Query(s, t), BfsSpcPair(g, s, t));
  }
}

TEST(ReducedIndexTest, ReductionsShrinkIndexOnFringyGraphs) {
  // BA core with pendant trees grafted on.
  GraphBuilder b(140);
  const Graph core = GenerateBarabasiAlbert(60, 3, 23);
  for (VertexId u = 0; u < 60; ++u) {
    for (VertexId v : core.Neighbors(u)) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  for (VertexId v = 60; v < 140; ++v) {
    b.AddEdge(v, (v * 7) % 60);  // pendant leaf
  }
  const Graph g = b.Build();
  const auto plain = ReducedSpcIndex::Build(g, Opts(false, false));
  const auto reduced = ReducedSpcIndex::Build(g, Opts(true, true));
  EXPECT_LT(reduced.IndexSizeBytes(), plain.IndexSizeBytes());
  for (const auto& [s, t] : AllPairs(140)) {
    ASSERT_EQ(reduced.Query(s, t), plain.Query(s, t));
  }
}

TEST(ReducedIndexTest, HpSpcInnerAlgorithmAgrees) {
  const Graph g = GenerateWattsStrogatz(70, 3, 0.15, 29);
  ReductionOptions hp = Opts(true, true);
  hp.build.algorithm = Algorithm::kHpSpc;
  ReductionOptions ps = Opts(true, true);
  ps.build.algorithm = Algorithm::kPspc;
  const auto a = ReducedSpcIndex::Build(g, hp);
  const auto b = ReducedSpcIndex::Build(g, ps);
  for (const auto& [s, t] : AllPairs(70)) {
    ASSERT_EQ(a.Query(s, t), b.Query(s, t));
  }
}

TEST(ReducedIndexTest, DisconnectedGraphs) {
  const Graph g = MakeGraph(8, {{0, 1}, {1, 2}, {0, 2}, {2, 3},  // lollipop
                                {5, 6}, {6, 7}});                // path
  const auto idx = ReducedSpcIndex::Build(g, Opts(true, true));
  EXPECT_EQ(idx.Query(0, 7), (SpcResult{kInfSpcDistance, 0}));
  EXPECT_EQ(idx.Query(4, 4), (SpcResult{0, 1}));
  EXPECT_EQ(idx.Query(5, 7), (SpcResult{2, 1}));
}

}  // namespace
}  // namespace pspc
