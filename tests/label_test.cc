#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "src/label/label_entry.h"
#include "src/label/label_set.h"
#include "src/label/spc_index.h"
#include "src/order/vertex_order.h"

namespace pspc {
namespace {

// ------------------------------------------------- LevelLabelStore --

TEST(LevelLabelStoreTest, CommitsFormLevels) {
  LevelLabelStore store(2);
  const LabelEntry l0{0, 0, 1};
  store.CommitLevel(0, {&l0, 1});
  std::vector<LabelEntry> level1{{1, 1, 2}, {3, 1, 1}};
  store.CommitLevel(0, level1);

  EXPECT_EQ(store.NumLevels(0), 2u);
  EXPECT_EQ(store.Entries(0).size(), 3u);
  EXPECT_EQ(store.Level(0, 0).size(), 1u);
  EXPECT_EQ(store.Level(0, 1).size(), 2u);
  EXPECT_EQ(store.Level(0, 1)[1].hub_rank, 3u);
  // Uncommitted level reads as empty.
  EXPECT_TRUE(store.Level(0, 2).empty());
  EXPECT_TRUE(store.Level(1, 0).empty());  // vertex 1 never committed
}

TEST(LevelLabelStoreTest, EmptyLevelsKeepAlignment) {
  LevelLabelStore store(1);
  const LabelEntry l0{0, 0, 1};
  store.CommitLevel(0, {&l0, 1});
  store.CommitLevel(0, {});  // distance 1: nothing
  std::vector<LabelEntry> level2{{2, 2, 5}};
  store.CommitLevel(0, level2);
  EXPECT_TRUE(store.Level(0, 1).empty());
  ASSERT_EQ(store.Level(0, 2).size(), 1u);
  EXPECT_EQ(store.Level(0, 2)[0].count, 5u);
}

TEST(LevelLabelStoreTest, TotalEntriesAcrossVertices) {
  LevelLabelStore store(3);
  const LabelEntry a{0, 0, 1};
  const LabelEntry b{1, 0, 1};
  store.CommitLevel(0, {&a, 1});
  store.CommitLevel(1, {&b, 1});
  EXPECT_EQ(store.TotalEntries(), 2u);
}

TEST(LevelLabelStoreDeathTest, RejectsUnsortedBatch) {
  LevelLabelStore store(1);
  std::vector<LabelEntry> bad{{3, 1, 1}, {1, 1, 1}};
  EXPECT_DEATH(store.CommitLevel(0, bad), "sorted");
}

// ---------------------------------------------------------- SpcIndex --

SpcIndex MakeTinyIndex() {
  // Path 0 - 1 - 2 under identity order. Hubs stored as ranks.
  // L(0) = {(0,0,1)}; L(1) = {(0,1,1),(1,0,1)};
  // L(2) = {(0,2,1),(1,1,1),(2,0,1)}.
  std::vector<std::vector<LabelEntry>> labels(3);
  labels[0] = {{0, 0, 1}};
  labels[1] = {{0, 1, 1}, {1, 0, 1}};
  labels[2] = {{0, 2, 1}, {1, 1, 1}, {2, 0, 1}};
  return SpcIndex(IdentityOrder(3), std::move(labels));
}

SpcIndex MakeTinyDirectedIndex() {
  // Directed path 0 -> 1 -> 2 under identity order: every Lout(v) is
  // v alone; Lin(v) holds v's ancestors, like L(v) of the path above.
  std::vector<std::vector<LabelEntry>> out(3), in(3);
  out[0] = {{0, 0, 1}};
  out[1] = {{1, 0, 1}};
  out[2] = {{2, 0, 1}};
  in[0] = {{0, 0, 1}};
  in[1] = {{0, 1, 1}, {1, 0, 1}};
  in[2] = {{0, 2, 1}, {1, 1, 1}, {2, 0, 1}};
  return SpcIndex(IdentityOrder(3), std::move(out), std::move(in));
}

TEST(SpcIndexTest, QueriesPathDistances) {
  const SpcIndex index = MakeTinyIndex();
  EXPECT_EQ(index.Query(0, 1), (SpcResult{1, 1}));
  EXPECT_EQ(index.Query(0, 2), (SpcResult{2, 1}));
  EXPECT_EQ(index.Query(2, 0), (SpcResult{2, 1}));
}

TEST(SpcIndexTest, SelfQueryIsZeroOne) {
  EXPECT_EQ(MakeTinyIndex().Query(1, 1), (SpcResult{0, 1}));
}

TEST(SpcIndexTest, NoCommonHubMeansDisconnected) {
  std::vector<std::vector<LabelEntry>> labels(2);
  labels[0] = {{0, 0, 1}};
  labels[1] = {{1, 0, 1}};
  const SpcIndex index(IdentityOrder(2), std::move(labels));
  EXPECT_EQ(index.Query(0, 1), (SpcResult{kInfSpcDistance, 0}));
}

TEST(SpcIndexTest, SumsCountsOverMinDistanceHubs) {
  // Two hubs at the same total distance: counts add (Eq. 2).
  std::vector<std::vector<LabelEntry>> labels(4);
  labels[0] = {{0, 0, 1}};
  labels[1] = {{0, 1, 1}, {1, 0, 1}};
  labels[2] = {{0, 1, 1}, {2, 0, 1}};
  labels[3] = {{0, 2, 2}, {1, 1, 1}, {2, 1, 1}, {3, 0, 1}};
  const SpcIndex index(IdentityOrder(4), std::move(labels));
  // 1 -> 3 via hub1 (0+1, count 1) and hub0 (1+2, dist 3 loses).
  EXPECT_EQ(index.Query(1, 3), (SpcResult{1, 1}));
  // 0 -> 3: hub0 gives 0+2 count 2.
  EXPECT_EQ(index.Query(0, 3), (SpcResult{2, 2}));
}

TEST(SpcIndexTest, ConstructorSortsEntriesByRank) {
  std::vector<std::vector<LabelEntry>> labels(2);
  labels[0] = {{1, 1, 1}, {0, 0, 1}};  // deliberately unsorted
  labels[1] = {{1, 0, 1}, {0, 1, 1}};
  const SpcIndex index(IdentityOrder(2), std::move(labels));
  EXPECT_EQ(index.Labels(0)[0].hub_rank, 0u);
  EXPECT_EQ(index.Labels(0)[1].hub_rank, 1u);
}

TEST(SpcIndexTest, PartsFlattenInRankOrderOnAnyThreadCount) {
  // Vertex v's hubs 0..v split over two parts, each holding sorted runs
  // out of rank order, as a level store does; every vertex ends sorted.
  const VertexId n = 40;
  LabelLists expected(n);
  for (VertexId v = 0; v < n; ++v) {
    for (Rank h = 0; h <= v; ++h) {
      expected[v].push_back({h, static_cast<Distance>(v - h), v + h + 1u});
    }
  }
  const auto split = [&expected] {
    // Runs of three ascending hubs, alternating between the parts; a
    // later run goes in front of the earlier ones.
    std::array<LabelLists, 2> parts;
    for (auto& part : parts) part.resize(expected.size());
    for (size_t v = 0; v < expected.size(); ++v) {
      const std::vector<LabelEntry>& all = expected[v];
      for (size_t first = 0; first < all.size(); first += 3) {
        std::vector<LabelEntry>& list = parts[(first / 3) % 2][v];
        list.insert(list.begin(), all.begin() + first,
                    all.begin() + std::min(first + 3, all.size()));
      }
    }
    return parts;
  };
  const SpcIndex one_part(IdentityOrder(n), expected);
  for (const int threads : {1, 3}) {
    std::array<LabelLists, 2> parts = split();
    const SpcIndex index(IdentityOrder(n), parts, {}, threads);
    EXPECT_EQ(index, one_part) << threads << " threads";
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_TRUE(std::ranges::equal(index.Labels(v), expected[v]));
      EXPECT_TRUE(parts[0][v].empty() && parts[1][v].empty());
    }
  }
}

TEST(SpcIndexTest, SizeAccounting) {
  const SpcIndex index = MakeTinyIndex();
  EXPECT_FALSE(index.Directed());
  EXPECT_EQ(index.TotalEntries(), 6u);
  EXPECT_DOUBLE_EQ(index.AverageLabelSize(), 2.0);
  EXPECT_EQ(index.SizeBytes(),
            6 * sizeof(LabelEntry) + 4 * sizeof(uint64_t));

  // A directed index counts both sides: 3 + 6 entries, 2 x 4 offsets.
  const SpcIndex directed = MakeTinyDirectedIndex();
  EXPECT_TRUE(directed.Directed());
  EXPECT_EQ(directed.TotalEntries(), 9u);
  EXPECT_DOUBLE_EQ(directed.AverageLabelSize(), 3.0);
  EXPECT_EQ(directed.SizeBytes(),
            9 * sizeof(LabelEntry) + 8 * sizeof(uint64_t));
}

TEST(SpcIndexTest, SaveLoadRoundTrip) {
  const SpcIndex index = MakeTinyIndex();
  const std::string path = ::testing::TempDir() + "/index.bin";
  ASSERT_TRUE(index.Save(path).ok());
  const auto loaded = SpcIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), index);
  EXPECT_EQ(loaded.value().Query(0, 2), (SpcResult{2, 1}));
  std::remove(path.c_str());
}

TEST(SpcIndexTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("garbage bytes here, definitely not an index", f);
    fclose(f);
  }
  const auto loaded = SpcIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SpcIndexTest, LoadMissingFileIsIOError) {
  const auto loaded = SpcIndex::Load("/no/such/file.idx");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace pspc
