#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/core/builder_facade.h"
#include "src/core/hp_spc_builder.h"
#include "src/core/pspc_builder.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/order/degree_order.h"
#include "src/order/hybrid_order.h"
#include "src/order/vertex_order.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

using pspc::testing::AllPairs;

VertexOrder PaperFigure2Order() {
  return VertexOrder(std::vector<VertexId>{0, 6, 3, 9, 2, 4, 5, 1, 7, 8});
}

BuildOptions Defaults() {
  BuildOptions o;
  o.num_landmarks = 4;
  return o;
}

// ------------------------------------------------ Core equivalences --

TEST(PspcBuilderTest, MatchesHpSpcOnFigure2) {
  const Graph g = PaperFigure2Graph();
  const VertexOrder order = PaperFigure2Order();
  const auto hp = BuildHpSpcIndex(g, order);
  const auto ps = BuildPspcIndex(g, order, Defaults());
  // Theorem 2: the distance-partitioned index is the same label set.
  EXPECT_EQ(ps.index, hp.index);
  EXPECT_EQ(ps.index.TotalEntries(), 35u);
}

TEST(PspcBuilderTest, MatchesHpSpcOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = GenerateErdosRenyi(70, 180, seed);
    const VertexOrder order = DegreeOrder(g);
    const auto hp = BuildHpSpcIndex(g, order);
    const auto ps = BuildPspcIndex(g, order, Defaults());
    EXPECT_EQ(ps.index, hp.index) << "seed " << seed;
  }
}

TEST(PspcBuilderTest, MatchesHpSpcOnScaleFreeGraph) {
  const Graph g = GenerateBarabasiAlbert(150, 3, 7);
  const VertexOrder order = DegreeOrder(g);
  EXPECT_EQ(BuildPspcIndex(g, order, Defaults()).index,
            BuildHpSpcIndex(g, order).index);
}

TEST(PspcBuilderTest, MatchesHpSpcOnRoadGrid) {
  const Graph g = GenerateRoadGrid(10, 10, 0.9, 0.05, 3);
  const VertexOrder order = HybridOrder(g, 3);
  EXPECT_EQ(BuildPspcIndex(g, order, Defaults()).index,
            BuildHpSpcIndex(g, order).index);
}

// The paper's Exp 2 claim: the index is *identical* regardless of the
// number of threads, because iteration d only reads iterations < d.
TEST(PspcBuilderTest, IndexIdenticalAcrossThreadCounts) {
  const Graph g = GenerateBarabasiAlbert(200, 4, 11);
  const VertexOrder order = DegreeOrder(g);
  BuildOptions base = Defaults();
  base.num_threads = 1;
  const auto reference = BuildPspcIndex(g, order, base);
  for (int threads : {2, 3, 4, 8}) {
    BuildOptions o = Defaults();
    o.num_threads = threads;
    EXPECT_EQ(BuildPspcIndex(g, order, o).index, reference.index)
        << threads << " threads";
  }
}

TEST(PspcBuilderTest, LandmarkFilterNeverChangesTheIndex) {
  const Graph g = GenerateBarabasiAlbert(120, 3, 13);
  const VertexOrder order = DegreeOrder(g);
  BuildOptions with = Defaults();
  with.num_landmarks = 16;
  BuildOptions without = Defaults();
  without.num_landmarks = 0;
  const auto a = BuildPspcIndex(g, order, with);
  const auto b = BuildPspcIndex(g, order, without);
  EXPECT_EQ(a.index, b.index);
  // The filter only relocates pruning work.
  EXPECT_GT(a.stats.pruned_by_landmark, 0u);
  EXPECT_EQ(b.stats.pruned_by_landmark, 0u);
  EXPECT_EQ(a.stats.pruned_by_landmark + a.stats.pruned_by_query,
            b.stats.pruned_by_query);
}

TEST(PspcBuilderTest, AllSchedulesProduceSameIndex) {
  const Graph g = GenerateErdosRenyi(100, 300, 23);
  const VertexOrder order = DegreeOrder(g);
  BuildOptions s = Defaults();
  s.schedule = ScheduleKind::kStatic;
  BuildOptions d = Defaults();
  d.schedule = ScheduleKind::kDynamic;
  BuildOptions c = Defaults();
  c.schedule = ScheduleKind::kCostAware;
  const auto is = BuildPspcIndex(g, order, s).index;
  const auto id = BuildPspcIndex(g, order, d).index;
  const auto ic = BuildPspcIndex(g, order, c).index;
  EXPECT_EQ(is, id);
  EXPECT_EQ(id, ic);
}

// --------------------------------------------------------- Queries --

TEST(PspcBuilderTest, AllPairsMatchBfsOracle) {
  // The classics pin exact multi-path counts: GenerateCycle(4) has two
  // shortest paths per opposite pair, the diamond ladder 3^4 between
  // its ends. The scale-free graph stresses hub-heavy labels.
  for (const Graph& g :
       {GenerateWattsStrogatz(80, 3, 0.2, 31), GeneratePath(9),
        GenerateCycle(10), GenerateComplete(6), GenerateStar(7),
        GenerateDiamondLadder(6, 3), GenerateCycle(4),
        GenerateBarabasiAlbert(300, 3, 77)}) {
    const auto ps = BuildPspcIndex(g, DegreeOrder(g), Defaults());
    for (const auto& [s, t] : AllPairs(g.NumVertices())) {
      ASSERT_EQ(ps.index.Query(s, t), BfsSpcPair(g, s, t))
          << g.NumVertices() << " vertices, pair (" << s << "," << t << ")";
    }
  }
}

TEST(PspcBuilderTest, DisconnectedGraphTerminates) {
  const Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  const auto ps = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  EXPECT_EQ(ps.index.Query(0, 6), (SpcResult{kInfSpcDistance, 0}));
  EXPECT_EQ(ps.index.Query(3, 4), (SpcResult{1, 1}));
}

TEST(PspcBuilderTest, SingleVertexGraph) {
  const Graph g = MakeGraph(1, {});
  const auto ps = BuildPspcIndex(g, IdentityOrder(1), Defaults());
  EXPECT_EQ(ps.index.TotalEntries(), 1u);
  EXPECT_EQ(ps.index.Query(0, 0), (SpcResult{0, 1}));
}

TEST(PspcBuilderTest, EmptyEdgeSetGraph) {
  const Graph g = MakeGraph(5, {});
  const auto ps = BuildPspcIndex(g, IdentityOrder(5), Defaults());
  EXPECT_EQ(ps.index.TotalEntries(), 5u);  // self labels only
  EXPECT_EQ(ps.index.Query(1, 3), (SpcResult{kInfSpcDistance, 0}));
}

TEST(PspcBuilderTest, WeightedCountsMatchHpSpcWeighted) {
  const Graph g = GenerateErdosRenyi(50, 120, 37);
  const VertexOrder order = DegreeOrder(g);
  std::vector<Count> weights(50);
  for (VertexId v = 0; v < 50; ++v) weights[v] = 1 + v % 3;
  const SpcIndex expected = BuildHpSpcIndex(g, order, weights).index;
  EXPECT_EQ(BuildPspcIndex(g, order, Defaults(), weights).index, expected);
  // The facade hands the weights to whichever builder it dispatches to.
  for (Algorithm algorithm : {Algorithm::kPspc, Algorithm::kHpSpc}) {
    BuildOptions o = Defaults();
    o.algorithm = algorithm;
    EXPECT_EQ(BuildIndexWithOrder(g, order, o, weights).index, expected)
        << ToString(algorithm);
  }
}

// ------------------------------------------------------------ Stats --

TEST(PspcBuilderTest, LevelHistogramSumsToTotal) {
  const Graph g = GenerateBarabasiAlbert(100, 3, 41);
  const auto ps = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  const size_t level_sum =
      std::accumulate(ps.stats.entries_per_level.begin(),
                      ps.stats.entries_per_level.end(), size_t{0});
  EXPECT_EQ(level_sum, ps.stats.total_entries);
  EXPECT_EQ(ps.stats.total_entries, ps.index.TotalEntries());
}

TEST(PspcBuilderTest, IterationsBoundedByDiameter) {
  const Graph g = GenerateRoadGrid(8, 8, 1.0, 0.0, 1);
  const auto ps = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  // Level d exists only if some trough shortest path has length d <= D.
  EXPECT_LE(ps.stats.num_iterations, ExactDiameter(g) + 1u);
  EXPECT_GE(ps.stats.num_iterations, 2u);  // at least distance-1 labels
}

TEST(PspcBuilderTest, PruningFunnelIsConsistent) {
  const Graph g = GenerateErdosRenyi(120, 400, 43);
  const auto ps = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  // Candidates either die at a pruning stage or become labels
  // (self labels are not candidates).
  EXPECT_EQ(ps.stats.candidates_after_merge,
            ps.stats.pruned_by_landmark + ps.stats.pruned_by_query +
                (ps.stats.total_entries - g.NumVertices()));
}

TEST(PspcBuilderTest, DeterministicAcrossRepeatedRuns) {
  const Graph g = GenerateBarabasiAlbert(150, 3, 47);
  const VertexOrder order = DegreeOrder(g);
  const auto a = BuildPspcIndex(g, order, Defaults());
  const auto b = BuildPspcIndex(g, order, Defaults());
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.stats.total_entries, b.stats.total_entries);
  EXPECT_EQ(a.stats.candidates_after_merge, b.stats.candidates_after_merge);
}

}  // namespace
}  // namespace pspc
