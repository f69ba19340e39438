#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/core/hp_spc_builder.h"
#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/label/query_engine.h"
#include "src/order/degree_order.h"
#include "src/reduce/reduced_index.h"

namespace pspc {
namespace {

BuildOptions Defaults() {
  BuildOptions o;
  o.num_landmarks = 8;
  return o;
}

// ------------------------------------------------------- Saturation --

TEST(SaturationStressTest, CountsSaturateIdenticallyEverywhere) {
  // 22 interior layers of width 8: 8^22 = 2^66 shortest paths — beyond
  // uint64. The BFS oracle, HP-SPC and PSPC must all clamp to the same
  // saturated value rather than wrap.
  const Graph g = GenerateDiamondLadder(24, 8);
  const VertexId t = g.NumVertices() - 1;
  const SpcResult oracle = BfsSpcPair(g, 0, t);
  EXPECT_EQ(oracle.distance, 23u);
  EXPECT_EQ(oracle.count, kSaturatedCount);

  const VertexOrder order = DegreeOrder(g);
  EXPECT_EQ(BuildPspcIndex(g, order, Defaults()).index.Query(0, t), oracle);
  EXPECT_EQ(BuildHpSpcIndex(g, order).index.Query(0, t), oracle);
}

TEST(SaturationStressTest, JustBelowSaturationStaysExact) {
  // 21 interior layers of width 8: 8^21 = 2^63 fits in uint64.
  const Graph g = GenerateDiamondLadder(23, 8);
  const VertexId t = g.NumVertices() - 1;
  const SpcResult r = BuildPspcIndex(g, DegreeOrder(g), Defaults())
                          .index.Query(0, t);
  EXPECT_EQ(r.distance, 22u);
  EXPECT_EQ(r.count, uint64_t{1} << 63);
}

// ------------------------------------------------------- Mini-fuzz --

TEST(FuzzStressTest, TwentySeedsPspcEqualsHpSpc) {
  for (uint64_t seed = 100; seed < 120; ++seed) {
    const Graph g =
        GenerateErdosRenyi(40 + seed % 23, 90 + (seed * 7) % 61, seed);
    const VertexOrder order = DegreeOrder(g);
    ASSERT_EQ(BuildPspcIndex(g, order, Defaults()).index,
              BuildHpSpcIndex(g, order).index)
        << "seed " << seed;
  }
}

TEST(FuzzStressTest, ReducedIndexAcrossSeeds) {
  ReductionOptions opts;
  opts.build.num_landmarks = 4;
  for (uint64_t seed = 200; seed < 208; ++seed) {
    const Graph g = GenerateClusteredBa(60, 2, 0.5, seed);
    const auto idx = ReducedSpcIndex::Build(g, opts);
    const QueryBatch batch = MakeRandomQueries(60, 150, seed);
    for (const auto& [s, t] : batch) {
      ASSERT_EQ(idx.Query(s, t), BfsSpcPair(g, s, t))
          << "seed " << seed << " pair (" << s << "," << t << ")";
    }
  }
}

TEST(FuzzStressTest, MidSizeGraphRandomQueries) {
  const Graph g = GenerateBarabasiAlbert(2500, 5, 0xCAFE);
  const SpcIndex index = BuildPspcIndex(g, DegreeOrder(g), Defaults()).index;
  const QueryBatch batch = MakeRandomQueries(2500, 400, 0xF00D);
  for (const auto& [s, t] : batch) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << "pair (" << s << "," << t << ")";
  }
}

// ------------------------------------------- Serialization fuzzing --

TEST(SerializationFuzzTest, TruncationAtEveryStrideNeverCrashes) {
  const Graph g = GenerateErdosRenyi(30, 70, 0xBEEF);
  const SpcIndex index = BuildPspcIndex(g, DegreeOrder(g), Defaults()).index;
  const std::string path = ::testing::TempDir() + "/fuzz.idx";
  ASSERT_TRUE(index.Save(path).ok());

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  for (size_t cut = 0; cut < bytes.size(); cut += 13) {
    const std::string cut_path = ::testing::TempDir() + "/fuzz_cut.idx";
    std::ofstream out(cut_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    const auto loaded = SpcIndex::Load(cut_path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " loaded";
    std::remove(cut_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SerializationFuzzTest, HeaderBitFlipsAreRejected) {
  const Graph g = GeneratePath(10);
  const SpcIndex index = BuildPspcIndex(g, DegreeOrder(g), Defaults()).index;
  const std::string path = ::testing::TempDir() + "/flip.idx";
  ASSERT_TRUE(index.Save(path).ok());

  for (size_t byte = 0; byte < 8; ++byte) {  // every magic byte
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(byte));
    f.write(&c, 1);
    f.close();
    EXPECT_FALSE(SpcIndex::Load(path).ok()) << "magic byte " << byte;
    // Flip back for the next round.
    std::fstream g2(path, std::ios::binary | std::ios::in | std::ios::out);
    g2.seekp(static_cast<std::streamoff>(byte));
    c = static_cast<char>(c ^ 0x40);
    g2.write(&c, 1);
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------- Degenerates --

TEST(DegenerateStressTest, ZeroVertexGraph) {
  const Graph g = MakeGraph(0, {});
  const auto built = BuildPspcIndex(g, IdentityOrder(0), Defaults());
  EXPECT_EQ(built.index.TotalEntries(), 0u);
  EXPECT_EQ(built.index.NumVertices(), 0u);
}

TEST(DegenerateStressTest, TwoVertexGraph) {
  const Graph g = MakeGraph(2, {{0, 1}});
  const auto built = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  EXPECT_EQ(built.index.Query(0, 1), (SpcResult{1, 1}));
}

TEST(DegenerateStressTest, RepeatedBuildsAreIdentical) {
  const Graph g = GenerateWattsStrogatz(300, 4, 0.3, 0xAAA);
  const VertexOrder order = DegreeOrder(g);
  const SpcIndex first = BuildPspcIndex(g, order, Defaults()).index;
  for (int run = 0; run < 5; ++run) {
    ASSERT_EQ(BuildPspcIndex(g, order, Defaults()).index, first)
        << "run " << run;
  }
}

TEST(DegenerateStressTest, SelfLoopHeavyInputIsClean) {
  GraphBuilder b(5);
  for (VertexId v = 0; v < 5; ++v) b.AddEdge(v, v);  // all dropped
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  const auto built = BuildPspcIndex(g, DegreeOrder(g), Defaults());
  EXPECT_EQ(built.index.Query(0, 1), (SpcResult{1, 1}));
  EXPECT_EQ(built.index.Query(2, 3), (SpcResult{kInfSpcDistance, 0}));
}

}  // namespace
}  // namespace pspc
