// Directed serving: `IndexSnapshot`/`SnapshotManager`/`ServingEngine`
// over a `DynamicDspcIndex`. Mirrors the undirected serving suite —
// capture isolation across generations and rebuilds, the O(delta)
// publish-cost invariant (pointer-aliasing proof across *both*
// label-side overlays), and an engine round trip quiesce-checked
// against the DiBfsSpcPair oracle.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/serve/index_snapshot.h"
#include "src/serve/serving_engine.h"
#include "src/serve/snapshot_manager.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

// Single-threaded OpenMP everywhere so these tests stay signal-only
// under ThreadSanitizer (libgomp worker teams are not TSan
// instrumented; a team of one never spawns).
BuildOptions SingleThreadBuild() {
  BuildOptions options;
  options.num_threads = 1;
  return options;
}

DynamicOptions RepairOnlyOptions() {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;
  options.rebuild_options = SingleThreadBuild();
  options.num_threads = 1;
  return options;
}

std::unique_ptr<DynamicDspcIndex> MakeIndex(const DiGraph& graph) {
  return std::make_unique<DynamicDspcIndex>(graph, SingleThreadBuild(),
                                            RepairOnlyOptions());
}

TEST(DirectedSnapshotTest, MatchesLiveIndex) {
  const DiGraph graph = GenerateRandomDiGraph(120, 420, 21);
  auto index = MakeIndex(graph);
  const auto snapshot = IndexSnapshot::Capture(*index);

  EXPECT_EQ(snapshot->NumVertices(), index->NumVertices());
  EXPECT_EQ(snapshot->NumEdges(), index->NumEdges());
  EXPECT_EQ(snapshot->Generation(), index->Generation());
  for (const auto& [s, t] : MakeRandomQueries(120, 200, 5)) {
    EXPECT_EQ(snapshot->Query(s, t), index->Query(s, t));
  }
}

TEST(DirectedSnapshotTest, IsolatesRetiredGenerationsAndSurvivesRebuild) {
  const DiGraph graph = GenerateRandomDiGraph(100, 320, 22);
  auto index = MakeIndex(graph);
  const QueryBatch probes = MakeRandomQueries(100, 200, 6);

  const auto before = IndexSnapshot::Capture(*index);
  std::vector<SpcResult> old_answers;
  for (const auto& [s, t] : probes) old_answers.push_back(before->Query(s, t));

  Rng rng(99);
  size_t applied = 0;
  while (applied < 10) {
    const auto u = static_cast<VertexId>(rng.NextBounded(100));
    const auto v = static_cast<VertexId>(rng.NextBounded(100));
    if (u == v || index->HasEdge(u, v)) continue;
    ASSERT_TRUE(index->InsertEdge(u, v).ok());
    ++applied;
  }

  const auto after = IndexSnapshot::Capture(*index);
  EXPECT_GT(after->Generation(), before->Generation());
  size_t changed = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto [s, t] = probes[i];
    EXPECT_EQ(before->Query(s, t), old_answers[i]);
    EXPECT_EQ(after->Query(s, t), index->Query(s, t));
    if (after->Query(s, t) != old_answers[i]) ++changed;
  }
  EXPECT_GT(changed, 0u);

  // A rebuild swaps the shared base out from under both captures;
  // their answers must not move.
  index->Rebuild();
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto [s, t] = probes[i];
    EXPECT_EQ(before->Query(s, t), old_answers[i]);
    EXPECT_EQ(IndexSnapshot::Capture(*index)->Query(s, t),
              index->Query(s, t));
  }
}

// The directed analogue of the undirected publish-cost regression: on
// an insert-heavy stream each capture must copy only the vertices
// repaired since the previous capture (the batch delta, summed across
// the out- and in-label overlays), never the whole accumulated
// overlay. Structural sharing is asserted at the pointer level on both
// label sides.
TEST(DirectedSnapshotTest, InsertHeavyPublishCopiesDeltaNotOverlay) {
  constexpr VertexId kN = 600;
  constexpr int kBatches = 24;
  constexpr size_t kPerBatch = 3;
  const DiGraph graph = GenerateRandomDiGraph(kN, 1800, 41);
  auto index = MakeIndex(graph);  // repair-only: the overlays only grow

  Rng rng(4141);
  std::vector<std::unique_ptr<const IndexSnapshot>> snaps;
  snaps.push_back(IndexSnapshot::Capture(*index));
  std::vector<size_t> copied, overlaid;
  DiGraph first_batch_graph;  // graph state snaps[1] was captured at
  for (int b = 0; b < kBatches; ++b) {
    EdgeUpdateBatch batch;
    std::set<std::pair<VertexId, VertexId>> in_batch;
    while (batch.Size() < kPerBatch) {
      const auto u = static_cast<VertexId>(rng.NextBounded(kN));
      const auto v = static_cast<VertexId>(rng.NextBounded(kN));
      if (u == v || index->HasEdge(u, v) || !in_batch.insert({u, v}).second) {
        continue;
      }
      batch.Insert(u, v);
    }
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
    snaps.push_back(IndexSnapshot::Capture(*index));
    if (b == 0) first_batch_graph = index->MaterializeGraph();
    copied.push_back(snaps.back()->CopiedVertices());
    overlaid.push_back(snaps.back()->OverlaidVertices());

    // The copied count must be exactly the per-batch delta: the set of
    // (vertex, side) chunks that no longer alias the previous
    // snapshot's. Both snapshots are alive here, so a cloned chunk can
    // never coincidentally reuse the old chunk's storage.
    const IndexSnapshot& prev = *snaps[snaps.size() - 2];
    const IndexSnapshot& cur = *snaps.back();
    size_t unshared = 0;
    for (VertexId v = 0; v < kN; ++v) {
      if (cur.OutLabels(v).data() != prev.OutLabels(v).data()) ++unshared;
      if (cur.InLabels(v).data() != prev.InLabels(v).data()) ++unshared;
    }
    EXPECT_EQ(unshared, copied.back()) << "batch " << b;
    EXPECT_LE(copied.back(), overlaid.back());
  }

  // The overlays grew across the stream while the per-publish copy
  // cost stayed at the batch delta.
  ASSERT_GE(overlaid.back(), 100u);
  size_t delta_sum = 0, map_copy_sum = 0;
  for (int b = kBatches / 2; b < kBatches; ++b) {
    const auto i = static_cast<size_t>(b);
    EXPECT_LT(copied[i], overlaid[i]) << "batch " << b;
    delta_sum += copied[i];
    map_copy_sum += overlaid[i];
  }
  EXPECT_LT(2 * delta_sum, map_copy_sum);

  // A capture with nothing in between copies nothing and aliases all.
  const auto idle = IndexSnapshot::Capture(*index);
  EXPECT_EQ(idle->CopiedVertices(), 0u);

  // Quiesce oracle: the final snapshot (and the live index) answer
  // exactly for the current graph.
  const DiGraph current = index->MaterializeGraph();
  for (const auto& [s, t] : MakeRandomQueries(kN, 64, 43)) {
    const SpcResult oracle = DiBfsSpcPair(current, s, t);
    EXPECT_EQ(snaps.back()->Query(s, t), oracle);
    EXPECT_EQ(index->Query(s, t), oracle);
  }

  // Old generations still answer for *their* graph.
  EXPECT_EQ(snaps[1]->Generation() + kBatches - 1,
            snaps.back()->Generation());
  for (const auto& [s, t] : MakeRandomQueries(kN, 64, 47)) {
    EXPECT_EQ(snaps[1]->Query(s, t), DiBfsSpcPair(first_batch_graph, s, t));
  }
}

// ------------------------------------------------------- ServingEngine

// Regression: the result cache must key on *ordered* pairs for the
// directed engine. With the undirected canonicalization (min, max) a
// cached SPC(s -> t) would be served for the distinct query
// SPC(t -> s) within the same generation.
TEST(DirectedServingEngineTest, CacheNeverAliasesReversedPairs) {
  DiGraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const DiGraph graph = builder.Build();  // 0 -> 1 -> 2, nothing back
  DynamicDspcIndex index(graph, SingleThreadBuild(), RepairOnlyOptions());

  ServingOptions options;
  options.num_workers = 1;
  ServingEngine engine(&index, options);

  // Same generation, both orders, repeated so the second round is
  // answered from the cache if anything was cached.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(engine.Submit(0, 2).get(), (SpcResult{2, 1}))
        << "round " << round;
    EXPECT_EQ(engine.Submit(2, 0).get(), (SpcResult{kInfSpcDistance, 0}))
        << "round " << round;
  }
  EXPECT_GT(engine.Counters().cache_hits, 0u);
}

TEST(DirectedServingEngineTest, MixedWorkloadStaysExactAndPublishesDeltas) {
  const DiGraph graph = GenerateRandomDiGraph(80, 260, 51);
  DynamicDspcIndex index(graph, SingleThreadBuild(), RepairOnlyOptions());

  ServingOptions options;
  options.num_workers = 2;
  ServingEngine engine(&index, options);

  // Mirror of the evolving directed edge set for sampling updates.
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const VertexId v : graph.OutNeighbors(u)) edges.insert({u, v});
  }

  Rng rng(777);
  uint64_t batches_with_effect = 0;
  for (int round = 0; round < 12; ++round) {
    // Interleave query batches with update batches through the engine.
    const QueryBatch queries = MakeRandomQueries(80, 32, rng.Next());
    auto future = engine.SubmitBatch(queries);

    EdgeUpdateBatch updates;
    for (int i = 0; i < 4; ++i) {
      const bool remove = !edges.empty() && rng.NextBool(0.5);
      if (remove) {
        auto it = edges.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
        updates.Delete(it->first, it->second);
        edges.erase(it);
      } else {
        while (true) {
          const auto u = static_cast<VertexId>(rng.NextBounded(80));
          const auto v = static_cast<VertexId>(rng.NextBounded(80));
          if (u != v && edges.insert({u, v}).second) {
            updates.Insert(u, v);
            break;
          }
        }
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(updates).ok()) << "round " << round;
    ++batches_with_effect;
    future.get();  // answers come from some recent generation
  }
  engine.Drain();

  // Quiesce: drained engine + idle writer => answers are exact for the
  // current graph.
  const DiGraph current = index.MaterializeGraph();
  const QueryBatch checks = MakeRandomQueries(80, 64, 0x5eed);
  const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
  for (size_t i = 0; i < checks.size(); ++i) {
    EXPECT_EQ(served[i],
              DiBfsSpcPair(current, checks[i].first, checks[i].second))
        << "pair (" << checks[i].first << "," << checks[i].second << ")";
  }

  const ServingCounters counters = engine.Counters();
  EXPECT_EQ(counters.generations_published, batches_with_effect);
  EXPECT_EQ(counters.updates_applied, 12u * 4u);
  // Directed publication pays the per-batch delta, not the overlay:
  // the counter must be live and bounded by two chunks per (update,
  // side) blast radius only in aggregate terms — here simply nonzero
  // and no larger than the final total overlay would imply per batch.
  EXPECT_GT(counters.publish_copied_vertices_total, 0u);
  EXPECT_GT(engine.PublishedGeneration(), 0u);
}

}  // namespace
}  // namespace pspc
