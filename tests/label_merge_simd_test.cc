// Differential suite for the query merge: `MergeLabelCountsBranchFree`,
// `MergeLabelSources` over raw and packed sides, and every production
// query path must be bit-identical to the `MergeLabelCounts` reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/builder_facade.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/label/label_merge.h"
#include "src/label/label_merge_simd.h"
#include "src/label/packed_label.h"
#include "src/serve/index_snapshot.h"

namespace pspc {
namespace {

using Labels = std::vector<LabelEntry>;

std::span<const LabelEntry> Span(const Labels& labels) {
  return {labels.data(), labels.size()};
}

/// A random entry for `rank`: mostly small distances and counts, with
/// `kInfDistance` distances and saturated or near-saturating counts
/// mixed in. `max_dist` small makes many matches tie on distance.
LabelEntry RandomEntry(Rng& rng, Rank rank, uint32_t max_dist) {
  LabelEntry e;
  e.hub_rank = rank;
  e.dist = rng.NextBool(0.03) ? kInfDistance
                              : static_cast<Distance>(rng.NextBounded(max_dist));
  if (rng.NextBool(0.03)) {
    e.count = kSaturatedCount;
  } else if (rng.NextBool(0.05)) {
    e.count = (Count{1} << 32) + rng.NextBounded(1000);  // products saturate
  } else {
    e.count = 1 + rng.NextBounded(1000);
  }
  return e;
}

Labels RandomLabel(Rng& rng, size_t max_len) {
  const size_t n = rng.NextBounded(max_len + 1);
  Labels entries;
  Rank rank = static_cast<Rank>(rng.NextBounded(8));
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(RandomEntry(rng, rank, 64));
    rank += 1 + static_cast<uint32_t>(
                    rng.NextBounded(rng.NextBool(0.15) ? 5000 : 4));
  }
  return entries;
}

/// Two lists the size of real labels (up to ~2,000 entries each) built
/// from runs: about 40% of the runs are hubs both lists hold, the rest
/// belong to one side only. One run in ten is 300-500 entries long, so
/// long stretches of matches and of non-matches cross the kernel's
/// round boundaries at arbitrary offsets.
std::pair<Labels, Labels> RealSizePair(Rng& rng) {
  const size_t target = 1 + rng.NextBounded(2000);
  const uint32_t max_dist = rng.NextBool(0.3) ? 2 : 64;
  Labels a, b;
  Rank rank = static_cast<Rank>(rng.NextBounded(4));
  while (a.size() < target && b.size() < target) {
    const uint64_t kind = rng.NextBounded(10);  // 0-3 shared, 4-6 a, 7-9 b
    const size_t run = rng.NextBool(0.1) ? 300 + rng.NextBounded(201)
                                         : 1 + rng.NextBounded(20);
    for (size_t k = 0; k < run; ++k) {
      if (kind < 7) a.push_back(RandomEntry(rng, rank, max_dist));
      if (kind < 4 || kind >= 7) b.push_back(RandomEntry(rng, rank, max_dist));
      rank += 1 + static_cast<uint32_t>(
                      rng.NextBounded(rng.NextBool(0.05) ? 1000 : 2));
    }
  }
  return {std::move(a), std::move(b)};
}

/// Checks the kernel, and `MergeLabelSources` over every raw/packed
/// combination, against the reference on `a` x `b` (both orders).
void ExpectAllMergesMatch(const Labels& a, const Labels& b,
                          const std::string& context) {
  std::vector<uint8_t> packed_a, packed_b;
  AppendPackedBlock(Span(a), &packed_a);
  AppendPackedBlock(Span(b), &packed_b);
  const LabelSource raw[] = {LabelSource::Raw(Span(a)),
                             LabelSource::Raw(Span(b))};
  const LabelSource packed[] = {
      LabelSource::Packed(PackedBlockView(packed_a.data())),
      LabelSource::Packed(PackedBlockView(packed_b.data()))};
  for (const bool swap : {false, true}) {
    const Labels& x = swap ? b : a;
    const Labels& y = swap ? a : b;
    const int ix = swap ? 1 : 0;
    const int iy = 1 - ix;
    const SpcResult expected = MergeLabelCounts(Span(x), Span(y));
    const std::string ctx = context + (swap ? " (b x a)" : " (a x b)");
    ASSERT_EQ(MergeLabelCountsBranchFree(Span(x), Span(y)), expected) << ctx;
    ASSERT_EQ(MergeLabelSources(raw[ix], raw[iy]), expected) << ctx << " rr";
    ASSERT_EQ(MergeLabelSources(raw[ix], packed[iy]), expected) << ctx << " rp";
    ASSERT_EQ(MergeLabelSources(packed[ix], raw[iy]), expected) << ctx << " pr";
    ASSERT_EQ(MergeLabelSources(packed[ix], packed[iy]), expected)
        << ctx << " pp";
  }
}

TEST(LabelMergeTest, ShortRandomListsMatchReference) {
  Rng rng(99173);
  for (int trial = 0; trial < 400; ++trial) {
    ExpectAllMergesMatch(RandomLabel(rng, 48), RandomLabel(rng, 48),
                         "trial " + std::to_string(trial));
  }
}

TEST(LabelMergeTest, RealSizeListsMatchReference) {
  Rng rng(20231);
  size_t longest = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto [a, b] = RealSizePair(rng);
    longest = std::max({longest, a.size(), b.size()});
    ExpectAllMergesMatch(a, b, "trial " + std::to_string(trial));
  }
  EXPECT_GE(longest, 1500u);  // the generator reaches real label sizes
}

// Runs of 300+ matches and 300+ non-matches on both sides, shifted by
// every offset a 128-step round can end at. The closing run of
// saturated counts either ties the best distance (the sum saturates)
// or lies one step farther (it must not count at all).
TEST(LabelMergeTest, LongRunsCrossEveryRoundOffset) {
  Rng rng(4242);
  for (const bool tail_ties : {false, true}) {
    for (uint32_t shift = 0; shift <= 130; ++shift) {
      Labels a, b;
      Rank rank = 0;
      for (uint32_t k = 0; k < shift; ++k) a.push_back({rank++, 3, 2});
      for (uint32_t k = 0; k < 320; ++k) {  // shared, all at one distance
        a.push_back({rank, 1, 1 + rng.NextBounded(5)});
        b.push_back({rank++, 1, 1 + rng.NextBounded(5)});
      }
      for (uint32_t k = 0; k < 310; ++k) a.push_back({rank++, 0, 1});
      for (uint32_t k = 0; k < 305; ++k) b.push_back({rank++, 0, 1});
      for (uint32_t k = 0; k < 300; ++k) {  // shared, one saturated side
        a.push_back({rank, static_cast<Distance>(tail_ties ? 1 : 2),
                     kSaturatedCount});
        b.push_back({rank++, 1, 2});
      }
      ExpectAllMergesMatch(a, b,
                           "shift " + std::to_string(shift) +
                               (tail_ties ? " tied tail" : " far tail"));
    }
  }
}

TEST(LabelMergeTest, DegenerateShapes) {
  const Labels empty;
  const Labels one = {{5, 2, 3}};
  const Labels inf_only = {{5, kInfDistance, 1}, {9, kInfDistance, 7}};
  Labels low, high;
  for (uint32_t i = 0; i < 300; ++i) {
    low.push_back({i, 1, 1});
    high.push_back({1000 + i, 1, 1});
  }
  const std::vector<const Labels*> shapes = {&empty, &one, &inf_only, &low,
                                             &high};
  for (size_t i = 0; i < shapes.size(); ++i) {
    for (size_t j = 0; j < shapes.size(); ++j) {
      ExpectAllMergesMatch(*shapes[i], *shapes[j],
                           "shapes " + std::to_string(i) + "," +
                               std::to_string(j));
    }
  }
}

// Every production query path on real indexes whose overlays hold
// repaired chunks: the static and dynamic indexes and the serving
// snapshot (plain and measured).
TEST(LabelMergeTest, EveryQueryPathMatchesReferenceUndirected) {
  BuildOptions build;
  build.num_landmarks = 8;
  build.num_threads = 1;
  DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only
  options.num_threads = 1;
  DynamicSpcIndex index(GenerateClusteredBa(200, 3, 0.3, 31), build, options);
  Rng rng(515);
  const VertexId n = index.NumVertices();
  for (int applied = 0; applied < 30;) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    const Status status =
        index.HasEdge(u, v) ? index.DeleteEdge(u, v) : index.InsertEdge(u, v);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++applied;
  }
  ASSERT_GT(index.Overlay().OverlaidVertices(), 0u);
  const auto snapshot = IndexSnapshot::Capture(index);

  const SpcIndex& base = index.BaseIndex();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      if (s == t) continue;
      const SpcResult expected = MergeLabelCounts(index.Labels(s), index.Labels(t));
      ASSERT_EQ(index.Query(s, t), expected) << s << "->" << t;
      ASSERT_EQ(snapshot->Query(s, t), expected) << s << "->" << t;
      size_t bytes = 0;
      ASSERT_EQ(snapshot->QueryMeasured(s, t, &bytes), expected) << s << "->" << t;
      ASSERT_EQ(bytes, index.Labels(s).size_bytes() + index.Labels(t).size_bytes())
          << s << "->" << t;
      ASSERT_EQ(base.Query(s, t), MergeLabelCounts(base.Labels(s), base.Labels(t)))
          << s << "->" << t;
    }
  }
}

TEST(LabelMergeTest, EveryQueryPathMatchesReferenceDirected) {
  BuildOptions build;
  build.num_threads = 1;
  DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only
  options.num_threads = 1;
  DynamicDspcIndex index(GenerateRandomDiGraph(150, 600, 77), build, options);
  Rng rng(616);
  const VertexId n = index.NumVertices();
  for (int applied = 0; applied < 30;) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    const Status status =
        index.HasEdge(u, v) ? index.DeleteEdge(u, v) : index.InsertEdge(u, v);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++applied;
  }
  ASSERT_GT(index.OutOverlay().OverlaidVertices() +
                index.InOverlay().OverlaidVertices(),
            0u);
  const auto snapshot = IndexSnapshot::Capture(index);

  const SpcIndex& base = index.BaseIndex();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      if (s == t) continue;
      const SpcResult expected =
          MergeLabelCounts(index.OutLabels(s), index.InLabels(t));
      ASSERT_EQ(index.Query(s, t), expected) << s << "->" << t;
      ASSERT_EQ(snapshot->Query(s, t), expected) << s << "->" << t;
      size_t bytes = 0;
      ASSERT_EQ(snapshot->QueryMeasured(s, t, &bytes), expected) << s << "->" << t;
      ASSERT_EQ(bytes,
                index.OutLabels(s).size_bytes() + index.InLabels(t).size_bytes())
          << s << "->" << t;
      ASSERT_EQ(base.Query(s, t),
                MergeLabelCounts(base.Labels(s), base.InLabels(t)))
          << s << "->" << t;
    }
  }
}

}  // namespace
}  // namespace pspc
