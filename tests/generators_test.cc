#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"

namespace pspc {
namespace {

TEST(GeneratorsTest, ErdosRenyiHasRequestedEdges) {
  const Graph g = GenerateErdosRenyi(100, 300, 1);
  EXPECT_EQ(g.NumVertices(), 100u);
  EXPECT_EQ(g.NumEdges(), 300u);
}

TEST(GeneratorsTest, ErdosRenyiCapsAtCompleteGraph) {
  const Graph g = GenerateErdosRenyi(5, 1000, 2);
  EXPECT_EQ(g.NumEdges(), 10u);  // C(5,2)
}

TEST(GeneratorsTest, ErdosRenyiDeterministicBySeed) {
  EXPECT_EQ(GenerateErdosRenyi(60, 120, 9), GenerateErdosRenyi(60, 120, 9));
  EXPECT_NE(GenerateErdosRenyi(60, 120, 9), GenerateErdosRenyi(60, 120, 10));
}

TEST(GeneratorsTest, BarabasiAlbertSizeAndConnectivity) {
  const Graph g = GenerateBarabasiAlbert(200, 3, 5);
  EXPECT_EQ(g.NumVertices(), 200u);
  // Seed clique C(4,2)=6 edges + 196 new vertices x 3 edges.
  EXPECT_EQ(g.NumEdges(), 6u + 196u * 3u);
  VertexId components = 0;
  ConnectedComponents(g, &components);
  EXPECT_EQ(components, 1u);  // preferential attachment is connected
}

TEST(GeneratorsTest, BarabasiAlbertIsSkewed) {
  const Graph g = GenerateBarabasiAlbert(500, 2, 8);
  // Heavy-tail check: max degree far above the mean.
  EXPECT_GT(g.MaxDegree(), 4 * static_cast<VertexId>(g.AverageDegree()));
}

TEST(GeneratorsTest, WattsStrogatzDegreeConcentration) {
  const Graph g = GenerateWattsStrogatz(300, 4, 0.1, 3);
  EXPECT_EQ(g.NumVertices(), 300u);
  // 2k per vertex before rewiring; duplicates from rewiring can shave a
  // few edges off.
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), 300.0 * 4, 30.0);
}

TEST(GeneratorsTest, RmatRespectsScale) {
  const Graph g = GenerateRmat(8, 1000, 0.57, 0.19, 0.19, 4);
  EXPECT_EQ(g.NumVertices(), 256u);
  EXPECT_LE(g.NumEdges(), 1000u);  // dedup + self-loop drops only shrink
  EXPECT_GT(g.NumEdges(), 500u);
}

TEST(GeneratorsTest, RoadGridShape) {
  const Graph g = GenerateRoadGrid(20, 30, 1.0, 0.0, 7);
  EXPECT_EQ(g.NumVertices(), 600u);
  // Full lattice: 19*30 vertical + 20*29 horizontal.
  EXPECT_EQ(g.NumEdges(), 19u * 30u + 20u * 29u);
  EXPECT_LE(g.MaxDegree(), 4u);
}

TEST(GeneratorsTest, PathCycleCompleteStar) {
  EXPECT_EQ(GeneratePath(5).NumEdges(), 4u);
  EXPECT_EQ(GenerateCycle(6).NumEdges(), 6u);
  EXPECT_EQ(GenerateComplete(7).NumEdges(), 21u);
  const Graph star = GenerateStar(9);
  EXPECT_EQ(star.NumVertices(), 10u);
  EXPECT_EQ(star.Degree(0), 9u);
}

TEST(GeneratorsTest, TreeIsAcyclicAndConnected) {
  const Graph g = GenerateTree(50, 3);
  EXPECT_EQ(g.NumEdges(), 49u);  // n - 1 edges: a tree
  VertexId components = 0;
  ConnectedComponents(g, &components);
  EXPECT_EQ(components, 1u);
}

TEST(GeneratorsTest, DiamondLadderCountExplosion) {
  // s at one end, t at the other; width^interior layers shortest paths.
  const Graph g = GenerateDiamondLadder(4, 3);  // 2 interior layers
  EXPECT_EQ(g.NumVertices(), 2u + 2u * 3u);
  const Distance diam = ExactDiameter(g);
  EXPECT_EQ(diam, 3u);  // s -> layer1 -> layer2 -> t
}

TEST(GeneratorsTest, PaperFigure2GraphShape) {
  const Graph g = PaperFigure2Graph();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.NumEdges(), 13u);
  // Spot-check the reconstructed adjacency (paper ids are 1-based).
  EXPECT_TRUE(g.HasEdge(0, 9));   // v1 - v10
  EXPECT_TRUE(g.HasEdge(6, 7));   // v7 - v8
  EXPECT_FALSE(g.HasEdge(0, 6));  // v1 and v7 are not adjacent
}

// ---------------------------------------------------------- Datasets --

TEST(DatasetsTest, RegistryHasPaperTablePlusRoad) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 11u);
  EXPECT_EQ(all.front().code, "FB");
  EXPECT_EQ(all.back().code, "RD");
}

TEST(DatasetsTest, SweepSetMatchesPaperFigures) {
  // Figs. 8-12 sweep FB, GO, GW, WI.
  int sweep = 0;
  for (const auto& spec : AllDatasets()) sweep += spec.in_sweep_set;
  EXPECT_EQ(sweep, 4);
  EXPECT_TRUE(DatasetByCode("GO").value().in_sweep_set);
  EXPECT_FALSE(DatasetByCode("IN").value().in_sweep_set);
}

TEST(DatasetsTest, UnknownCodeIsNotFound) {
  const auto spec = DatasetByCode("NOPE");
  ASSERT_EQ(spec.status().code(), Status::Code::kNotFound);
  EXPECT_NE(spec.status().message().find("'NOPE'"), std::string::npos);
  EXPECT_NE(spec.status().message().find("FB, GW"), std::string::npos);
}

TEST(DatasetsTest, BuildersAreDeterministic) {
  const DatasetSpec fb = DatasetByCode("FB").value();
  const Graph a = fb.build(64);  // heavy shrink for test speed
  const Graph b = fb.build(64);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.NumVertices(), 64u);
}

TEST(DatasetsTest, ScaleDivisorShrinks) {
  const DatasetSpec gw = DatasetByCode("GW").value();
  EXPECT_GT(gw.build(1).NumVertices(), gw.build(16).NumVertices());
}

}  // namespace
}  // namespace pspc
