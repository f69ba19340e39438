#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/core/builder_facade.h"
#include "src/core/hp_spc_builder.h"
#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/label/query_engine.h"
#include "src/order/vertex_order.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

/// Families x orderings, swept by value-parameterized tests: every
/// combination must answer every sampled query exactly like the BFS
/// oracle, PSPC must equal HP-SPC structurally (Theorem 2: same ESPC
/// label set), and neither thread count nor schedule may change it.
struct GraphCase {
  std::string name;
  Graph (*make)();
};

Graph MakeEr() { return GenerateErdosRenyi(64, 160, 101); }
Graph MakeBa() { return GenerateBarabasiAlbert(64, 3, 102); }
Graph MakeWs() { return GenerateWattsStrogatz(64, 3, 0.2, 103); }
Graph MakeRmat() { return GenerateRmat(6, 200, 0.57, 0.19, 0.19, 104); }
Graph MakeGrid() { return GenerateRoadGrid(8, 8, 0.9, 0.1, 105); }
Graph MakeClustered() { return GenerateClusteredBa(64, 2, 0.4, 106); }
Graph MakeDisconnected() {
  GraphBuilder b(64);
  const Graph a = GenerateErdosRenyi(32, 70, 107);
  for (VertexId u = 0; u < 32; ++u) {
    for (VertexId v : a.Neighbors(u)) {
      if (u < v) {
        b.AddEdge(u, v);
        b.AddEdge(u + 32, v + 32);
      }
    }
  }
  return b.Build();
}
Graph MakeLadder() { return GenerateDiamondLadder(6, 3); }

const GraphCase kGraphCases[] = {
    {"erdos_renyi", &MakeEr},       {"barabasi_albert", &MakeBa},
    {"watts_strogatz", &MakeWs},    {"rmat", &MakeRmat},
    {"road_grid", &MakeGrid},       {"clustered_ba", &MakeClustered},
    {"two_components", &MakeDisconnected}, {"diamond_ladder", &MakeLadder},
};

const OrderingScheme kOrderings[] = {
    OrderingScheme::kDegree,
    OrderingScheme::kRoadNetwork,
    OrderingScheme::kHybrid,
    OrderingScheme::kIdentity,
};

class SpcPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, OrderingScheme>> {
 protected:
  const GraphCase& Case() const {
    return kGraphCases[std::get<0>(GetParam())];
  }
  OrderingScheme Ordering() const { return std::get<1>(GetParam()); }
};

TEST_P(SpcPropertyTest, PspcMatchesHpSpcStructurally) {
  const Graph g = Case().make();
  const VertexOrder order = ComputeOrder(g, Ordering(), 4);
  BuildOptions opts;
  opts.num_landmarks = 4;
  const BuildResult pspc = BuildPspcIndex(g, order, opts);
  const BuildResult hp = BuildHpSpcIndex(g, order);
  EXPECT_EQ(pspc.index, hp.index);

  // Without landmarks PSPC files exactly HP-SPC's canonical entries as
  // distance entries. A landmark may keep a non-canonical entry as a
  // distance entry, which moves it across the split but not the sum.
  opts.num_landmarks = 0;
  const BuildStats plain = BuildPspcIndex(g, order, opts).stats;
  EXPECT_EQ(plain.canonical_labels, hp.stats.canonical_labels);
  EXPECT_EQ(plain.non_canonical_labels, hp.stats.non_canonical_labels);
  EXPECT_GE(pspc.stats.canonical_labels, hp.stats.canonical_labels);
  EXPECT_EQ(pspc.stats.canonical_labels + pspc.stats.non_canonical_labels,
            hp.stats.canonical_labels + hp.stats.non_canonical_labels);
}

TEST_P(SpcPropertyTest, QueriesMatchBfsOracle) {
  const Graph g = Case().make();
  const VertexOrder order = ComputeOrder(g, Ordering(), 4);
  BuildOptions opts;
  opts.num_landmarks = 4;
  const SpcIndex index = BuildPspcIndex(g, order, opts).index;
  const QueryBatch batch = MakeRandomQueries(g.NumVertices(), 300, 999);
  for (const auto& [s, t] : batch) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << Case().name << " pair (" << s << "," << t << ")";
  }
}

TEST_P(SpcPropertyTest, ThreadAndScheduleInvariance) {
  const Graph g = Case().make();
  const VertexOrder order = ComputeOrder(g, Ordering(), 4);
  BuildOptions one;
  one.num_threads = 1;
  one.num_landmarks = 4;
  const SpcIndex expected = BuildPspcIndex(g, order, one).index;
  for (const ScheduleKind schedule :
       {ScheduleKind::kStatic, ScheduleKind::kDynamic,
        ScheduleKind::kCostAware}) {
    BuildOptions many = one;
    many.schedule = schedule;
    many.num_threads = 7;  // deliberately awkward thread count
    EXPECT_EQ(BuildPspcIndex(g, order, many).index, expected)
        << ToString(schedule);
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<int, OrderingScheme>>& info) {
  std::string name = kGraphCases[std::get<0>(info.param)].name + "_" +
                     ToString(std::get<1>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';  // gtest parameter names must be identifiers
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SpcPropertyTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::ValuesIn(kOrderings)),
    CaseName);

// ------------------------- facade-level sweep over full BuildOptions --

class FacadeTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FacadeTest, EndToEndBuildAndQuery) {
  const Graph g = GenerateBarabasiAlbert(96, 3, 201);
  BuildOptions opts;
  opts.algorithm = GetParam();
  opts.ordering = OrderingScheme::kDegree;
  opts.num_landmarks = 8;
  const BuildResult result = BuildIndex(g, opts);
  EXPECT_GT(result.stats.total_entries, g.NumVertices());
  EXPECT_GE(result.stats.ordering_seconds, 0.0);
  const QueryBatch batch = MakeRandomQueries(96, 200, 77);
  for (const auto& [s, t] : batch) {
    ASSERT_EQ(result.index.Query(s, t), BfsSpcPair(g, s, t));
  }
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, FacadeTest,
                         ::testing::Values(Algorithm::kHpSpc,
                                           Algorithm::kPspc),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return info.param == Algorithm::kHpSpc ? "hp_spc"
                                                                  : "pspc";
                         });

// Significant-path ordering is expensive (sequential labeling pass), so
// it gets a single dedicated case instead of the full matrix.
TEST(SignificantPathPropertyTest, ExactOnScaleFreeGraph) {
  const Graph g = GenerateBarabasiAlbert(64, 3, 301);
  const VertexOrder order =
      ComputeOrder(g, OrderingScheme::kSignificantPath, 4);
  BuildOptions opts;
  opts.num_landmarks = 4;
  const SpcIndex index = BuildPspcIndex(g, order, opts).index;
  for (const auto& [s, t] : pspc::testing::AllPairs(64)) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t));
  }
}

TEST(BruteForceCrossCheck, BfsOracleAgreesWithPathEnumeration) {
  // Validates the validator: BFS counting vs exhaustive enumeration.
  const Graph g = GenerateErdosRenyi(12, 22, 401);
  for (const auto& [s, t] : pspc::testing::AllPairs(12)) {
    ASSERT_EQ(BfsSpcPair(g, s, t), pspc::testing::BruteForceSpc(g, s, t));
  }
}

}  // namespace
}  // namespace pspc
