#include <gtest/gtest.h>

#include <numeric>

#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/label/index_stats.h"
#include "src/order/degree_order.h"
#include "src/order/vertex_order.h"

namespace pspc {
namespace {

SpcIndex MakeIndex(const Graph& g) {
  BuildOptions o;
  o.num_landmarks = 4;
  return BuildPspcIndex(g, DegreeOrder(g), o).index;
}

TEST(IndexStatsTest, EmptyIndexProfile) {
  const IndexProfile p = ProfileIndex(SpcIndex());
  EXPECT_EQ(p.total_entries, 0u);
  EXPECT_EQ(p.avg_label_size, 0.0);
}

TEST(IndexStatsTest, StarProfile) {
  const SpcIndex index = MakeIndex(GenerateStar(8));
  const IndexProfile p = ProfileIndex(index);
  EXPECT_EQ(p.total_entries, 17u);  // center 1 + 8 leaves x 2
  EXPECT_EQ(p.max_label_size, 2u);
  EXPECT_EQ(p.min_label_size, 1u);
  // Distances: 9 self entries (d0) + 8 center entries (d1).
  ASSERT_EQ(p.entries_per_distance.size(), 2u);
  EXPECT_EQ(p.entries_per_distance[0], 9u);
  EXPECT_EQ(p.entries_per_distance[1], 8u);
  // The center (rank 0) hub appears in 9 of 17 entries.
  EXPECT_NEAR(p.top1_hub_share, 9.0 / 17.0, 1e-12);
}

TEST(IndexStatsTest, DistanceHistogramSumsToTotal) {
  const SpcIndex index = MakeIndex(GenerateErdosRenyi(80, 200, 3));
  const IndexProfile p = ProfileIndex(index);
  EXPECT_EQ(std::accumulate(p.entries_per_distance.begin(),
                            p.entries_per_distance.end(), size_t{0}),
            p.total_entries);
  EXPECT_EQ(p.total_entries, index.TotalEntries());
  EXPECT_DOUBLE_EQ(p.avg_label_size, index.AverageLabelSize());
}

TEST(IndexStatsTest, HubSharesAreMonotone) {
  const SpcIndex index = MakeIndex(GenerateBarabasiAlbert(120, 3, 5));
  const IndexProfile p = ProfileIndex(index);
  EXPECT_LE(p.top1_hub_share, p.top10_hub_share);
  EXPECT_LE(p.top10_hub_share, p.top100_hub_share);
  EXPECT_LE(p.top100_hub_share, 1.0 + 1e-12);
  // Scale-free + degree order: the top hub carries a visible share —
  // the concentration that justifies landmark filtering.
  EXPECT_GT(p.top1_hub_share, 0.05);
}

TEST(IndexStatsTest, ToStringMentionsKeyFields) {
  const SpcIndex index = MakeIndex(GeneratePath(5));
  const std::string s = ProfileIndex(index).ToString();
  EXPECT_NE(s.find("entries="), std::string::npos);
  EXPECT_NE(s.find("per-distance:"), std::string::npos);
}

}  // namespace
}  // namespace pspc
