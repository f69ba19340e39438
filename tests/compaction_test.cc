#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/chunked_overlay.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/serve/index_snapshot.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

BuildOptions SmallBuildOptions() {
  BuildOptions options;
  options.num_landmarks = 4;
  return options;
}

DynamicOptions NoRebuildOptions() {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;
  options.rebuild_options = SmallBuildOptions();
  return options;
}

/// Applies a deterministic stream of valid updates (inserts with
/// probability `insert_prob`, deletions of existing edges otherwise).
void Churn(DynamicSpcIndex& index, int steps, double insert_prob,
           uint64_t seed) {
  Rng rng(seed);
  const VertexId n = index.NumVertices();
  for (int step = 0; step < steps;) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (rng.NextBool(insert_prob)) {
      if (index.HasEdge(u, v)) continue;
      ASSERT_TRUE(index.InsertEdge(u, v).ok());
    } else {
      if (!index.HasEdge(u, v)) continue;
      ASSERT_TRUE(index.DeleteEdge(u, v).ok());
    }
    ++step;
  }
}

void ExpectMatchesOracle(const DynamicSpcIndex& index,
                         const std::string& context) {
  const Graph g = index.MaterializeGraph();
  for (const auto& [s, t] : testing::AllPairs(g.NumVertices())) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << context << " pair (" << s << "," << t << ")";
  }
}

TEST(CompactionTest, FoldEmptiesOverlayBumpsGenerationKeepsAnswers) {
  DynamicSpcIndex index(GenerateWattsStrogatz(36, 3, 0.2, 13),
                        SmallBuildOptions(), NoRebuildOptions());
  Churn(index, 30, 0.5, 302);
  ASSERT_GT(index.Overlay().OverlaidEntries(), 0u);
  const uint64_t generation_before = index.Generation();

  // What the fold must produce: base (+) overlay, minus the stale
  // entries of repaired vertices — those recording a distance longer
  // than the true one, decided here by BFS rather than by the index.
  const Graph g = index.MaterializeGraph();
  const VertexId n = index.NumVertices();
  std::vector<std::vector<LabelEntry>> expected(n);
  uint64_t stale = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (const LabelEntry& e : index.Labels(v)) {
      const VertexId hub = index.Order().VertexAt(e.hub_rank);
      if (index.Overlay().Overlaid(v) &&
          static_cast<uint32_t>(e.dist) > BfsSpcPair(g, v, hub).distance) {
        ++stale;
      } else {
        expected[v].push_back(e);
      }
    }
  }

  EXPECT_EQ(index.Fold(), stale);

  EXPECT_EQ(index.Overlay().OverlaidVertices(), 0u);
  EXPECT_EQ(index.StalenessRatio(), 0.0);
  EXPECT_GT(index.Generation(), generation_before);
  for (VertexId v = 0; v < n; ++v) {
    const auto folded = index.BaseIndex().Labels(v);
    ASSERT_EQ(std::vector<LabelEntry>(folded.begin(), folded.end()),
              expected[v])
        << "vertex " << v;
  }
  ExpectMatchesOracle(index, "after fold");
}

TEST(CompactionTest, FoldPrunesStaleEntriesWithoutChangingAnswers) {
  // Insert-heavy churn: insertions shorten true distances, so repair
  // provably may leave entries whose recorded distance exceeds the new
  // shortest — exactly what the fold's stale sweep removes.
  DynamicSpcIndex index(GenerateErdosRenyi(40, 60, 17), SmallBuildOptions(),
                        NoRebuildOptions());
  Churn(index, 40, 0.9, 303);

  size_t entries_before = 0;
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    entries_before += index.Labels(v).size();
  }

  const uint64_t pruned = index.Fold();

  EXPECT_EQ(index.BaseIndex().TotalEntries(), entries_before - pruned);
  EXPECT_GT(pruned, 0u);
  ExpectMatchesOracle(index, "after pruning fold");
}

TEST(CompactionTest, SnapshotsOnEitherSideOfFoldAnswerIdentically) {
  DynamicSpcIndex index(GenerateErdosRenyi(40, 70, 19), SmallBuildOptions(),
                        NoRebuildOptions());
  Churn(index, 30, 0.7, 304);
  const auto before = IndexSnapshot::Capture(index);
  ASSERT_GT(before->OverlaidVertices(), 0u);
  const auto pairs = testing::AllPairs(index.NumVertices());
  std::vector<SpcResult> answers;
  for (const auto& [s, t] : pairs) answers.push_back(index.Query(s, t));

  index.Fold();
  const auto after = IndexSnapshot::Capture(index);

  // The pre-fold snapshot keeps the retired base and overlay alive;
  // the post-fold one reads the fresh base alone.
  EXPECT_EQ(after->OverlaidVertices(), 0u);
  EXPECT_GT(after->Generation(), before->Generation());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    ASSERT_EQ(before->Query(s, t), answers[i]) << "(" << s << "," << t << ")";
    ASSERT_EQ(after->Query(s, t), answers[i]) << "(" << s << "," << t << ")";
  }
  ExpectMatchesOracle(index, "after fold");
}

}  // namespace
}  // namespace pspc
