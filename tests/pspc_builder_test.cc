#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/core/builder_facade.h"
#include "src/core/hp_spc_builder.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/digraph.h"
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

// --------------------------------------------------- Pinned funnels --
//
// Finalize merges a side's distance and count stores into one
// rank-sorted CSR, so a survivor filed in the wrong store, or a verdict
// reached by the wrong stage, leaves every index byte unchanged. These
// counts show it: they are pinned to values recorded from builds whose
// indexes match HP-SPC and the BFS oracle.

struct Funnel {
  size_t candidates;
  size_t pruned_by_landmark;
  size_t pruned_by_query;
  size_t canonical;
  size_t non_canonical;
  size_t num_iterations;
  std::vector<size_t> entries_per_level;
};

void ExpectFunnel(const BuildStats& stats, const Funnel& expected) {
  EXPECT_EQ(stats.candidates_after_merge, expected.candidates);
  EXPECT_EQ(stats.pruned_by_landmark, expected.pruned_by_landmark);
  EXPECT_EQ(stats.pruned_by_query, expected.pruned_by_query);
  EXPECT_EQ(stats.canonical_labels, expected.canonical);
  EXPECT_EQ(stats.non_canonical_labels, expected.non_canonical);
  EXPECT_EQ(stats.num_iterations, expected.num_iterations);
  EXPECT_EQ(stats.entries_per_level, expected.entries_per_level);
}

const std::vector<size_t> kScaleFreeLevels = {2000,   9985,  53235,
                                              146958, 43281, 25};

TEST(PspcBuilderTest, FunnelPinnedOnScaleFreeGraph) {
  const Graph g = GenerateBarabasiAlbert(2000, 5, 25);
  const VertexOrder order = DegreeOrder(g);
  // Landmark-kept entries are distance entries whether or not they are
  // canonical, so the split moves with the landmarks; the sum does not.
  const Funnel with_landmarks{824940, 243946, 327510, 164527,
                              88957,  6,      kScaleFreeLevels};
  const Funnel without_landmarks{824940, 0, 571456, 80680,
                                 172804, 6, kScaleFreeLevels};
  for (int threads : {1, 4}) {
    BuildOptions with;
    with.num_threads = threads;
    BuildOptions without = with;
    without.num_landmarks = 0;
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ExpectFunnel(BuildPspcIndex(g, order, with).stats, with_landmarks);
    ExpectFunnel(BuildPspcIndex(g, order, without).stats, without_landmarks);
  }
}

TEST(PspcBuilderTest, DirectedFunnelPinnedOnRandomDigraph) {
  const DiGraph g = GenerateRandomDiGraph(1500, 6000, 25);
  const VertexOrder order = DirectedDegreeOrder(g);
  const Funnel expected{1180738,
                        0,
                        704822,
                        294998,
                        180918,
                        12,
                        {3000, 6000, 13492, 35283, 88545, 160330, 130674,
                         35647, 5251, 603, 86, 5}};
  for (int threads : {1, 4}) {
    BuildOptions options;
    options.num_threads = threads;
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ExpectFunnel(BuildDirectedPspcIndex(g, order, options).stats, expected);
  }
}

TEST(PspcBuilderTest, HpSpcFunnelPinnedOnScaleFreeGraph) {
  const Graph g = GenerateBarabasiAlbert(2000, 5, 25);
  // One iteration per hub and no level histogram. Its canonical split
  // equals PSPC's without landmarks.
  ExpectFunnel(BuildHpSpcIndex(g, DegreeOrder(g)).stats,
               {515549, 0, 262065, 80680, 172804, 2000, {}});
}

}  // namespace
}  // namespace pspc
