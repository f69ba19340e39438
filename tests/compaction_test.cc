#include "src/dynamic/compaction.h"

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

  OverlayCompactor compactor(&index);
  compactor.Fold();

  EXPECT_EQ(index.Overlay().OverlaidVertices(), 0u);
  EXPECT_EQ(index.StalenessRatio(), 0.0);
  EXPECT_GT(index.Generation(), generation_before);
  EXPECT_EQ(compactor.Stats().folds, 1u);
  EXPECT_GT(compactor.Stats().last_fold_entries_folded, 0u);
  EXPECT_EQ(compactor.Stats().entries_pruned, stale);
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

  OverlayCompactor compactor(&index);
  compactor.Fold();

  EXPECT_EQ(index.BaseIndex().TotalEntries(),
            entries_before - compactor.Stats().entries_pruned);
  EXPECT_GT(compactor.Stats().entries_pruned, 0u);
  ExpectMatchesOracle(index, "after pruning fold");
}

TEST(CompactionTest, FoldIfStaleHonorsThreshold) {
  DynamicSpcIndex index(GenerateErdosRenyi(30, 60, 19), SmallBuildOptions(),
                        NoRebuildOptions());
  Churn(index, 15, 0.5, 304);
  ASSERT_GT(index.StalenessRatio(), 0.0);

  CompactionOptions never;
  never.fold_staleness_ratio = 1e18;
  OverlayCompactor lazy(&index, never);
  EXPECT_FALSE(lazy.FoldIfStale());
  EXPECT_EQ(lazy.Stats().folds, 0u);

  CompactionOptions always;
  always.fold_staleness_ratio = 0.0;
  OverlayCompactor eager(&index, always);
  EXPECT_TRUE(eager.FoldIfStale());
  EXPECT_FALSE(eager.FoldIfStale());  // overlay now empty, ratio 0
  EXPECT_EQ(eager.Stats().folds, 1u);
}

}  // namespace
}  // namespace pspc
