#include "src/label/packed_label.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/builder_facade.h"
#include "src/graph/generators.h"
#include "src/label/label_entry.h"

namespace pspc {
namespace {

std::vector<LabelEntry> Decode(const PackedBlockView& view) {
  std::vector<LabelEntry> out;
  view.DecodeAll(&out);
  return out;
}

void ExpectRoundTrip(const std::vector<LabelEntry>& entries,
                     const std::string& context) {
  std::vector<uint8_t> bytes;
  const size_t written = AppendPackedBlock(
      std::span<const LabelEntry>(entries.data(), entries.size()), &bytes);
  ASSERT_EQ(written, bytes.size()) << context;
  const PackedBlockView view(bytes.data());
  ASSERT_EQ(view.NumEntries(), entries.size()) << context;
  ASSERT_EQ(view.SizeBytes(), bytes.size()) << context;
  EXPECT_EQ(Decode(view), entries) << context;

  // Point lookups agree with the raw binary search for present hubs
  // and for probes straddling every entry boundary.
  const std::span<const LabelEntry> raw(entries.data(), entries.size());
  for (const LabelEntry& e : entries) {
    for (const Rank probe :
         {e.hub_rank, e.hub_rank == 0 ? e.hub_rank : e.hub_rank - 1,
          e.hub_rank + 1}) {
      Distance dist = 0;
      Count count = 0;
      const bool found = view.FindHub(probe, &dist, &count);
      const size_t at = FindHubEntry(raw, probe);
      ASSERT_EQ(found, at != raw.size()) << context << " probe " << probe;
      if (found) {
        EXPECT_EQ(dist, raw[at].dist) << context << " probe " << probe;
        EXPECT_EQ(count, raw[at].count) << context << " probe " << probe;
      }
    }
  }
}

TEST(PackedBlockTest, EmptyLabel) {
  ExpectRoundTrip({}, "empty");
  std::vector<uint8_t> bytes;
  AppendPackedBlock({}, &bytes);
  const PackedBlockView view(bytes.data());
  Distance dist;
  Count count;
  EXPECT_FALSE(view.FindHub(0, &dist, &count));
  EXPECT_EQ(view.NumGroups(), 0u);
}

TEST(PackedBlockTest, GroupBoundarySizes) {
  // 1, 7, 8, 9, 16, 17: partial groups, exact groups, and the first
  // entry of a fresh group (whose rank lives in the skip slot, not the
  // delta stream).
  for (const uint32_t n : {1u, 7u, 8u, 9u, 16u, 17u}) {
    std::vector<LabelEntry> entries;
    for (uint32_t i = 0; i < n; ++i) {
      entries.push_back({3 * i + 1, static_cast<Distance>(i % 7),
                         static_cast<Count>(i) + 1});
    }
    ExpectRoundTrip(entries, "n=" + std::to_string(n));
  }
}

TEST(PackedBlockTest, RankGapsWiderThanDeltaLanes) {
  // Deltas that overflow the 1-byte lane (>255) and the 2-byte lane
  // (>65535) must promote their group — and only their group — to a
  // wider lane while still round-tripping exactly.
  std::vector<LabelEntry> entries;
  Rank rank = 0;
  const uint32_t gaps[] = {1,      255,    256,        65535,
                           65536,  1 << 20, 1u << 30,  7};
  for (const uint32_t gap : gaps) {
    rank += gap;
    entries.push_back({rank, 2, 5});
  }
  ExpectRoundTrip(entries, "wide-gaps");
}

TEST(PackedBlockTest, MaxRankAndInfDistance) {
  // The largest encodable values in every field: rank near the u32
  // ceiling, the kInfDistance (0xFFFF) sentinel, zero counts.
  std::vector<LabelEntry> entries = {
      {0, 0, 1},
      {std::numeric_limits<Rank>::max() - 1, kInfDistance, 0},
  };
  ExpectRoundTrip(entries, "extremes");
}

TEST(PackedBlockTest, SaturatedCountsUseEscapeLane) {
  // kSaturatedCount only fits the 8-byte escape lane; mixing it with
  // tiny counts in one group forces the whole group wide and must stay
  // bit-exact.
  std::vector<LabelEntry> entries;
  for (uint32_t i = 0; i < 12; ++i) {
    entries.push_back({i * 10, static_cast<Distance>(i),
                       i % 3 == 0 ? kSaturatedCount : Count{1} << (5 * i % 60)});
  }
  ExpectRoundTrip(entries, "saturated");
}

TEST(PackedBlockTest, RandomizedAdversarialRoundTrip) {
  Rng rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = rng.NextBounded(40);
    std::vector<LabelEntry> entries;
    Rank rank = static_cast<Rank>(rng.NextBounded(1000));
    for (size_t i = 0; i < n; ++i) {
      LabelEntry e;
      e.hub_rank = rank;
      // Gap distribution with heavy tails so every delta lane fires.
      const int lane = static_cast<int>(rng.NextBounded(3));
      const uint32_t max_gap = lane == 0 ? 200 : lane == 1 ? 60000 : 1u << 24;
      rank += 1 + static_cast<uint32_t>(rng.NextBounded(max_gap));
      e.dist = rng.NextBool(0.1)
                   ? kInfDistance
                   : static_cast<Distance>(rng.NextBounded(1 << 14));
      e.count = rng.NextBool(0.1) ? kSaturatedCount : rng.Next();
      if (rng.NextBool(0.5)) e.count = rng.NextBounded(256);
      entries.push_back(e);
    }
    ExpectRoundTrip(entries, "trial " + std::to_string(trial));
  }
}

TEST(PackedLabelMapTest, EncodesWholeIndexExactlyAndSmaller) {
  const Graph g = GenerateBarabasiAlbert(300, 3, 42);
  BuildOptions options;
  options.num_landmarks = 8;
  const SpcIndex index = BuildIndex(g, options).index;
  const PackedLabelMap packed = PackedLabelMap::Encode(index.LabelMap());

  ASSERT_EQ(packed.NumVertices(), index.NumVertices());
  EXPECT_EQ(packed.TotalEntries(), index.TotalEntries());
  size_t raw_bytes = 0;
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    const auto raw = index.Labels(v);
    raw_bytes += raw.size_bytes();
    const std::vector<LabelEntry> decoded = Decode(packed.Block(v));
    ASSERT_EQ(decoded.size(), raw.size()) << "vertex " << v;
    for (size_t i = 0; i < raw.size(); ++i) {
      ASSERT_EQ(decoded[i], raw[i]) << "vertex " << v << " entry " << i;
    }
  }
  // The point of the format: strictly fewer bytes than 16/entry raw.
  EXPECT_LT(packed.SizeBytes(), raw_bytes);
}

}  // namespace
}  // namespace pspc
