#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/pspc_builder.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/graph/generators.h"
#include "src/order/degree_order.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

using pspc::testing::AllPairs;

// ----------------------------------------------------------- DiGraph --

TEST(DiGraphTest, DualCsrConsistency) {
  const DiGraph g = MakeDiGraph(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.InDegree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));  // direction matters
}

TEST(DiGraphTest, BuilderDedupsAndDropsSelfLoops) {
  DiGraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.AddEdge(1, 0);  // reverse is a distinct edge
  const DiGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(DiGraphTest, FromUndirectedSymmetrizes) {
  const Graph u = GeneratePath(4);
  const DiGraph d = FromUndirected(u);
  EXPECT_EQ(d.NumEdges(), 2 * u.NumEdges());
  EXPECT_TRUE(d.HasEdge(1, 2));
  EXPECT_TRUE(d.HasEdge(2, 1));
}

TEST(DiGraphTest, RandomGeneratorDeterministic) {
  EXPECT_EQ(GenerateRandomDiGraph(30, 80, 5), GenerateRandomDiGraph(30, 80, 5));
  EXPECT_EQ(GenerateRandomDiGraph(30, 80, 5).NumEdges(), 80u);
}

// ---------------------------------------------------------- DiBfsSpc --

TEST(DiBfsSpcTest, DirectedCycleGoesOneWay) {
  const DiGraph g = GenerateDiCycle(6);
  // 0 -> 3 takes 3 hops; 3 -> 0 must go around: 3 hops too (6-cycle),
  // but 0 -> 5 is 5 hops while 5 -> 0 is 1.
  EXPECT_EQ(DiBfsSpcPair(g, 0, 3), (SpcResult{3, 1}));
  EXPECT_EQ(DiBfsSpcPair(g, 0, 5), (SpcResult{5, 1}));
  EXPECT_EQ(DiBfsSpcPair(g, 5, 0), (SpcResult{1, 1}));
}

TEST(DiBfsSpcTest, UnreachableDirection) {
  const DiGraph g = MakeDiGraph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(DiBfsSpcPair(g, 0, 2), (SpcResult{2, 1}));
  EXPECT_EQ(DiBfsSpcPair(g, 2, 0), (SpcResult{kInfSpcDistance, 0}));
}

TEST(DiBfsSpcTest, ParallelBranchesMultiply) {
  // 0 -> {1,2} -> 3 -> {4,5} -> 6: 2 * 2 paths of length 4.
  const DiGraph g = MakeDiGraph(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  EXPECT_EQ(DiBfsSpcPair(g, 0, 6), (SpcResult{4, 4}));
}

// ------------------------------------------------- directed SpcIndex --

TEST(DirectedPspcTest, DagAllPairs) {
  const DiGraph g = MakeDiGraph(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  for (VertexId s = 0; s < 7; ++s) {
    for (VertexId t = 0; t < 7; ++t) {
      EXPECT_EQ(built.index.Query(s, t), DiBfsSpcPair(g, s, t))
          << "pair (" << s << "," << t << ")";
    }
  }
}

TEST(DirectedPspcTest, AsymmetricReachability) {
  const DiGraph g = MakeDiGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  EXPECT_EQ(built.index.Query(0, 3), (SpcResult{3, 1}));
  EXPECT_EQ(built.index.Query(3, 0), (SpcResult{kInfSpcDistance, 0}));
}

TEST(DirectedPspcTest, RandomDigraphsMatchOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const DiGraph g = GenerateRandomDiGraph(50, 220, seed);
    const auto built =
        BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
    for (VertexId s = 0; s < 50; ++s) {
      for (VertexId t = 0; t < 50; ++t) {
        ASSERT_EQ(built.index.Query(s, t), DiBfsSpcPair(g, s, t))
            << "seed " << seed << " pair (" << s << "," << t << ")";
      }
    }
  }
}

TEST(DirectedPspcTest, SymmetricClosureMatchesUndirectedIndex) {
  // Directed SPC on the symmetric closure must agree with the
  // undirected PSPC index on the original graph. The two orders
  // coincide, so both label sides equal the undirected labels.
  const Graph u = GenerateErdosRenyi(60, 150, 9);
  const DiGraph d = FromUndirected(u);
  BuildOptions uopts;
  uopts.num_landmarks = 4;
  const SpcIndex undirected = BuildPspcIndex(u, DegreeOrder(u), uopts).index;
  ASSERT_EQ(DirectedDegreeOrder(d), DegreeOrder(u));
  const auto directed =
      BuildDirectedPspcIndex(d, DirectedDegreeOrder(d), BuildOptions{});
  ASSERT_TRUE(directed.index.Directed());
  // Each side splits its entries as the undirected build does without
  // landmarks (the directed build has none).
  uopts.num_landmarks = 0;
  const BuildStats plain = BuildPspcIndex(u, DegreeOrder(u), uopts).stats;
  EXPECT_EQ(directed.stats.canonical_labels, 2 * plain.canonical_labels);
  EXPECT_EQ(directed.stats.non_canonical_labels,
            2 * plain.non_canonical_labels);
  for (VertexId v = 0; v < 60; ++v) {
    ASSERT_TRUE(std::ranges::equal(directed.index.Labels(v),
                                   undirected.Labels(v)))
        << "Lout(" << v << ")";
    ASSERT_TRUE(std::ranges::equal(directed.index.InLabels(v),
                                   undirected.Labels(v)))
        << "Lin(" << v << ")";
  }
  for (const auto& [s, t] : AllPairs(60)) {
    ASSERT_EQ(directed.index.Query(s, t), undirected.Query(s, t))
        << "pair (" << s << "," << t << ")";
  }
}

TEST(DirectedPspcTest, ThreadCountInvariance) {
  const DiGraph g = GenerateRandomDiGraph(80, 400, 13);
  const VertexOrder order = DirectedDegreeOrder(g);
  BuildOptions one;
  one.num_threads = 1;
  BuildOptions many;
  many.num_threads = 7;
  EXPECT_EQ(BuildDirectedPspcIndex(g, order, one).index,
            BuildDirectedPspcIndex(g, order, many).index);
}

TEST(DirectedPspcTest, SchedulesMatchDefault) {
  // Every schedule builds the default (cost-aware) index.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const DiGraph g =
        GenerateRandomDiGraph(120, 120 * (2 + seed % 3), seed);
    const VertexOrder order = DirectedDegreeOrder(g);
    const SpcIndex expected =
        BuildDirectedPspcIndex(g, order, BuildOptions{}).index;
    for (const ScheduleKind schedule :
         {ScheduleKind::kStatic, ScheduleKind::kDynamic,
          ScheduleKind::kCostAware}) {
      const BuildOptions options{.schedule = schedule, .num_threads = 4};
      EXPECT_EQ(BuildDirectedPspcIndex(g, order, options).index, expected)
          << "seed " << seed << " " << ToString(schedule);
    }
  }
}

TEST(DirectedPspcTest, DirectedCycleCounts) {
  const DiGraph g = GenerateDiCycle(9);
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  EXPECT_EQ(built.index.Query(0, 8), (SpcResult{8, 1}));
  EXPECT_EQ(built.index.Query(8, 0), (SpcResult{1, 1}));
}

TEST(DirectedPspcTest, DirectedPathLabelStructure) {
  // 0 -> 1 -> 2 under identity order: Lin(v) holds every ancestor as a
  // hub; Lout(v) holds only v (no higher-ranked vertex is reachable
  // forward from v except through lower ranks... ranks equal ids, and
  // all reachable-forward vertices have larger ids = lower ranks, so
  // out-labels stay singleton).
  const DiGraph g = MakeDiGraph(3, {{0, 1}, {1, 2}});
  const auto built =
      BuildDirectedPspcIndex(g, IdentityOrder(3), BuildOptions{});
  EXPECT_EQ(built.index.InLabels(2).size(), 3u);  // hubs 0, 1, 2
  EXPECT_EQ(built.index.Labels(2).size(), 1u);    // self only
  EXPECT_EQ(built.index.Labels(0).size(), 1u);    // self only
  EXPECT_EQ(built.index.InLabels(0).size(), 1u);
}

TEST(DirectedPspcTest, CountsMultiplyThroughDirectedFunnels) {
  // Two disjoint 2-wide funnels in series: 2 * 2 directed paths.
  const DiGraph g = MakeDiGraph(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  EXPECT_EQ(built.index.Query(0, 6), (SpcResult{4, 4}));
  // Against the arrow: nothing.
  EXPECT_EQ(built.index.Query(6, 0), (SpcResult{kInfSpcDistance, 0}));
}

TEST(DirectedPspcTest, StatsAreConsistent) {
  const DiGraph g = GenerateRandomDiGraph(60, 300, 21);
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  EXPECT_EQ(built.stats.total_entries, built.index.TotalEntries());
  EXPECT_GE(built.stats.num_iterations, 2u);
  EXPECT_EQ(built.stats.candidates_after_merge,
            built.stats.pruned_by_query +
                (built.stats.total_entries - 2u * g.NumVertices()));
  EXPECT_EQ(built.stats.canonical_labels + built.stats.non_canonical_labels,
            built.stats.total_entries - 2u * g.NumVertices());
  EXPECT_GT(built.stats.non_canonical_labels, 0u);
}

// Parameterized sweep: density x seed, every pair checked against the
// directed oracle.
class DirectedSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DirectedSweepTest, AllPairsMatchOracle) {
  const auto [density, seed] = GetParam();
  const VertexId n = 40;
  const DiGraph g = GenerateRandomDiGraph(
      n, static_cast<EdgeId>(n) * density, 1000 + seed);
  const auto built =
      BuildDirectedPspcIndex(g, DirectedDegreeOrder(g), BuildOptions{});
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(built.index.Query(s, t), DiBfsSpcPair(g, s, t))
          << "density " << density << " seed " << seed << " pair (" << s
          << "," << t << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensityBySeed, DirectedSweepTest,
    ::testing::Combine(::testing::Values(1, 3, 6),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      // Built via append: the char*+rvalue operator+ chain trips GCC
      // 12's -Wrestrict false positive (PR105651).
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "n_seed";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace pspc
