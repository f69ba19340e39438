// Directed dynamic maintenance (`DynamicDspcIndex`): single-update
// exactness against the DiBfsSpcPair oracle across randomized mixed
// insert/delete streams, the batched ≡ sequential ≡ oracle equivalence
// (mirroring tests/dynamic_batch_test.cc), direction distinctness
// (u -> v and v -> u never conflate), atomic batch validation, the
// staleness-rebuild path, and the pinned repair work of a fixed mixed
// stream.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

DynamicOptions NoRebuildOptions() {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only
  return options;
}

/// Mirror of the evolving directed edge set, for oracles and batch
/// sampling. Pairs are ordered: (u, v) is the edge u -> v.
class DiEdgeMirror {
 public:
  explicit DiEdgeMirror(const DiGraph& g) : n_(g.NumVertices()) {
    for (VertexId u = 0; u < n_; ++u) {
      for (const VertexId v : g.OutNeighbors(u)) edges_.insert({u, v});
    }
  }

  void Apply(const EdgeUpdate& up) {
    if (up.kind == EdgeUpdateKind::kInsert) {
      edges_.insert({up.u, up.v});
    } else {
      edges_.erase({up.u, up.v});
    }
  }

  DiGraph Materialize() const {
    DiGraphBuilder builder(n_);
    for (const auto& [u, v] : edges_) builder.AddEdge(u, v);
    return builder.Build();
  }

  /// Random update, valid against the mirrored state (and applied to
  /// it): a delete of an existing directed edge if `remove`, else an
  /// insert of an absent ordered pair.
  EdgeUpdate SampleUpdate(Rng& rng, bool remove) {
    EdgeUpdate up;
    if (remove) {
      auto it = edges_.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(edges_.size())));
      up = {it->first, it->second, EdgeUpdateKind::kDelete};
    } else {
      while (true) {
        const auto u = static_cast<VertexId>(rng.NextBounded(n_));
        const auto v = static_cast<VertexId>(rng.NextBounded(n_));
        if (u != v && !edges_.contains({u, v})) {
          up = {u, v, EdgeUpdateKind::kInsert};
          break;
        }
      }
    }
    Apply(up);
    return up;
  }

  /// Random mixed batch of `size` such updates, deletes and inserts
  /// interleaved at random.
  EdgeUpdateBatch SampleBatch(Rng& rng, size_t size) {
    EdgeUpdateBatch batch;
    for (size_t i = 0; i < size; ++i) {
      batch.Add(SampleUpdate(rng, !edges_.empty() && rng.NextBool(0.5)));
    }
    return batch;
  }

  size_t NumEdges() const { return edges_.size(); }

 private:
  VertexId n_;
  std::set<std::pair<VertexId, VertexId>> edges_;
};

void ExpectAllPairsExact(const DynamicDspcIndex& index, const DiGraph& graph,
                         const std::string& context) {
  for (const auto& [s, t] : testing::AllPairs(graph.NumVertices())) {
    ASSERT_EQ(index.Query(s, t), DiBfsSpcPair(graph, s, t))
        << context << " pair (" << s << "," << t << ")";
  }
}

// ------------------------------------------------------ single updates

TEST(DynamicDspcTest, InsertShortcutOnCycle) {
  // The directed cycle has exactly one path between any pair; a chord
  // rewrites distances for many ordered pairs in one direction only.
  DiGraph g = GenerateDiCycle(10);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());
  DiEdgeMirror mirror(g);

  ASSERT_TRUE(index.InsertEdge(0, 5).ok());
  mirror.Apply({0, 5, EdgeUpdateKind::kInsert});
  ExpectAllPairsExact(index, mirror.Materialize(), "after chord 0->5");

  ASSERT_TRUE(index.InsertEdge(7, 2).ok());
  mirror.Apply({7, 2, EdgeUpdateKind::kInsert});
  ExpectAllPairsExact(index, mirror.Materialize(), "after chord 7->2");
}

TEST(DynamicDspcTest, DeleteBreaksOneDirectionOnly) {
  // Both orientations present: deleting u -> v must leave v -> u (and
  // every pair served by it) untouched.
  const Graph und = GenerateErdosRenyi(24, 60, 11);
  DiGraph g = FromUndirected(und);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());
  DiEdgeMirror mirror(g);

  Rng rng(17);
  for (int round = 0; round < 6; ++round) {
    // Pick a live edge and delete just that orientation.
    const DiGraph current = mirror.Materialize();
    VertexId u = 0, v = 0;
    for (int tries = 0; tries < 1000; ++tries) {
      u = static_cast<VertexId>(rng.NextBounded(current.NumVertices()));
      const auto nbrs = current.OutNeighbors(u);
      if (nbrs.empty()) continue;
      v = nbrs[rng.NextBounded(nbrs.size())];
      break;
    }
    ASSERT_TRUE(index.DeleteEdge(u, v).ok()) << "round " << round;
    mirror.Apply({u, v, EdgeUpdateKind::kDelete});
    ExpectAllPairsExact(index, mirror.Materialize(),
                        "round " + std::to_string(round));
  }
}

TEST(DynamicDspcTest, ErrorsLeaveIndexUntouched) {
  DiGraph g = GenerateDiCycle(6);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());
  const uint64_t gen0 = index.Generation();

  EXPECT_EQ(index.InsertEdge(0, 1).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.InsertEdge(3, 3).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.InsertEdge(0, 99).code(), Status::Code::kInvalidArgument);
  // 1 -> 0 is not an edge of the cycle even though 0 -> 1 is.
  EXPECT_EQ(index.DeleteEdge(1, 0).code(), Status::Code::kNotFound);
  EXPECT_EQ(index.Generation(), gen0);
  ExpectAllPairsExact(index, g, "after rejected updates");
}

TEST(DynamicDspcIndexDeathTest, RejectsUndirectedIndex) {
  const Graph g = GeneratePath(4);
  BuildOptions options;
  options.num_threads = 1;
  SpcIndex undirected = BuildIndex(g, options).index;
  EXPECT_DEATH(DynamicDspcIndex(FromUndirected(g), std::move(undirected)),
               "needs a directed index");
}

// -------------------------------------------------- randomized streams

struct StreamCase {
  std::string name;
  DiGraph (*make)();
  uint64_t seed;
};

DiGraph MakeRandomDense() { return GenerateRandomDiGraph(32, 140, 31); }
DiGraph MakeRandomSparse() { return GenerateRandomDiGraph(40, 70, 32); }
DiGraph MakeSymmetric() {
  return FromUndirected(GenerateBarabasiAlbert(32, 3, 33));
}
DiGraph MakeCycleChords() {
  DiGraphBuilder builder(30);
  for (VertexId v = 0; v < 30; ++v) builder.AddEdge(v, (v + 1) % 30);
  builder.AddEdge(0, 15);
  builder.AddEdge(20, 5);
  return builder.Build();
}

const StreamCase kStreamCases[] = {
    {"random_dense", &MakeRandomDense, 901},
    {"random_sparse", &MakeRandomSparse, 902},
    {"symmetric_closure", &MakeSymmetric, 903},
    {"cycle_with_chords", &MakeCycleChords, 904},
};

class DirectedStreamTest : public ::testing::TestWithParam<int> {
 protected:
  const StreamCase& Case() const { return kStreamCases[GetParam()]; }
};

// Sequential single-update exactness across a mixed stream: after
// every update, all ordered pairs match the directed BFS oracle.
TEST_P(DirectedStreamTest, MixedStreamStaysOracleExact) {
  const DiGraph start = Case().make();
  DynamicDspcIndex index(start, BuildOptions{}, NoRebuildOptions());
  DiEdgeMirror mirror(start);
  Rng rng(Case().seed);

  for (int step = 0; step < 40; ++step) {
    const EdgeUpdateBatch one = mirror.SampleBatch(rng, 1);
    ASSERT_TRUE(index.Apply(one.Updates()[0]).ok())
        << Case().name << " step " << step;
    // All-pairs checks are quadratic; sample the tail of the stream.
    if (step % 4 == 3) {
      ExpectAllPairsExact(index, mirror.Materialize(),
                          Case().name + " step " + std::to_string(step));
    }
  }
  ExpectAllPairsExact(index, mirror.Materialize(), Case().name + " final");
  EXPECT_EQ(index.Stats().rebuilds, 0u);
}

// The batched ≡ sequential ≡ oracle equivalence of the undirected
// suite, on the directed index: applying a mixed batch atomically
// answers exactly like applying it update by update, and both match
// the directed BFS oracle on the final graph.
TEST_P(DirectedStreamTest, BatchedEqualsSequentialEqualsOracle) {
  const DiGraph start = Case().make();
  DynamicDspcIndex batched(start, BuildOptions{}, NoRebuildOptions());
  DynamicDspcIndex sequential(start, BuildOptions{}, NoRebuildOptions());
  DiEdgeMirror mirror(start);
  Rng rng(Case().seed + 100);

  for (int round = 0; round < 6; ++round) {
    const size_t size = round < 3 ? 8 : 20;  // small and larger batches
    const EdgeUpdateBatch batch = mirror.SampleBatch(rng, size);
    ASSERT_TRUE(batched.ApplyBatch(batch).ok())
        << Case().name << " round " << round;
    for (const EdgeUpdate& up : batch) {
      ASSERT_TRUE(sequential.Apply(up).ok())
          << Case().name << " round " << round;
    }
    const DiGraph current = mirror.Materialize();
    ASSERT_EQ(batched.NumEdges(), mirror.NumEdges());
    for (const auto& [s, t] : testing::AllPairs(current.NumVertices())) {
      const SpcResult oracle = DiBfsSpcPair(current, s, t);
      ASSERT_EQ(batched.Query(s, t), oracle)
          << Case().name << " round " << round << " batched pair (" << s
          << "," << t << ")";
      ASSERT_EQ(sequential.Query(s, t), oracle)
          << Case().name << " round " << round << " sequential pair (" << s
          << "," << t << ")";
    }
  }
  EXPECT_EQ(batched.Stats().rebuilds, 0u);
  // Insertion coalescing: the batched index never launches more
  // per-hub repairs than update-by-update application. (Directed
  // deletions replay the single-edge path, so the bound comes from
  // the multi-source insert runs.)
  EXPECT_LE(batched.Stats().resumed_bfs_runs,
            sequential.Stats().resumed_bfs_runs);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DirectedStreamTest,
    ::testing::Range(0, static_cast<int>(std::size(kStreamCases))),
    [](const ::testing::TestParamInfo<int>& info) {
      return kStreamCases[info.param].name;
    });

// ------------------------------------------------------ batch semantics

TEST(DirectedApplyBatchTest, AtomicOnMissingDelete) {
  const DiGraph g = GenerateDiCycle(8);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());
  const uint64_t gen0 = index.Generation();

  EdgeUpdateBatch bad;
  bad.Insert(0, 4);
  bad.Delete(1, 0);  // reverse of a cycle edge: missing
  EXPECT_EQ(index.ApplyBatch(bad).code(), Status::Code::kNotFound);
  EXPECT_EQ(index.NumEdges(), 8u);
  EXPECT_FALSE(index.HasEdge(0, 4));
  EXPECT_EQ(index.Generation(), gen0);
  ExpectAllPairsExact(index, g, "after rejected batch");
}

TEST(DirectedApplyBatchTest, ReverseEdgesDoNotCoalesce) {
  const DiGraph g = GenerateDiCycle(8);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());

  // i 0->4 then d 4->0 must NOT cancel (distinct directed edges); the
  // delete targets a missing edge and rejects the batch atomically.
  EdgeUpdateBatch batch;
  batch.Insert(0, 4);
  batch.Delete(4, 0);
  EXPECT_EQ(index.ApplyBatch(batch).code(), Status::Code::kNotFound);
  EXPECT_FALSE(index.HasEdge(0, 4));

  // Both orientations inserted: two distinct net insertions.
  EdgeUpdateBatch both;
  both.Insert(0, 4);
  both.Insert(4, 0);
  ASSERT_TRUE(index.ApplyBatch(both).ok());
  EXPECT_TRUE(index.HasEdge(0, 4));
  EXPECT_TRUE(index.HasEdge(4, 0));
  DiEdgeMirror mirror(g);
  mirror.Apply({0, 4, EdgeUpdateKind::kInsert});
  mirror.Apply({4, 0, EdgeUpdateKind::kInsert});
  ExpectAllPairsExact(index, mirror.Materialize(), "both orientations");
}

TEST(DirectedApplyBatchTest, CancelingPairsAreNoOpsAndOneBumpPerBatch) {
  const DiGraph g = GenerateDiCycle(8);
  DynamicDspcIndex index(g, BuildOptions{}, NoRebuildOptions());
  const uint64_t gen0 = index.Generation();

  EdgeUpdateBatch noop;
  noop.Insert(0, 4);
  noop.Delete(0, 4);   // cancels
  noop.Insert(0, 1);   // redundant: the cycle already has it
  noop.Delete(2, 3);
  noop.Insert(2, 3);   // round trip
  ASSERT_TRUE(index.ApplyBatch(noop).ok());
  EXPECT_EQ(index.Generation(), gen0);  // nothing net: nothing published
  EXPECT_EQ(index.NumEdges(), 8u);
  EXPECT_EQ(index.Stats().updates_coalesced, 5u);
  EXPECT_EQ(index.Stats().TotalHubRuns(), 0u);
  ExpectAllPairsExact(index, g, "after no-op batch");

  DiEdgeMirror mirror(g);
  Rng rng(55);
  const EdgeUpdateBatch batch = mirror.SampleBatch(rng, 10);
  ASSERT_TRUE(index.ApplyBatch(batch).ok());
  EXPECT_EQ(index.Generation(), gen0 + 1);  // one bump for the batch
}

// ------------------------------------------------------- rebuild path

TEST(DynamicDspcTest, StalenessRebuildStaysExact) {
  const DiGraph start = GenerateRandomDiGraph(28, 110, 77);
  DynamicOptions options;
  options.rebuild_threshold = 0.05;  // rebuild early and often
  DynamicDspcIndex index(start, BuildOptions{}, options);
  DiEdgeMirror mirror(start);
  Rng rng(78);

  for (int step = 0; step < 30; ++step) {
    const EdgeUpdateBatch one = mirror.SampleBatch(rng, 1);
    ASSERT_TRUE(index.Apply(one.Updates()[0]).ok()) << "step " << step;
  }
  ExpectAllPairsExact(index, mirror.Materialize(), "after rebuild stream");
  EXPECT_GT(index.Stats().rebuilds, 0u);
  // A rebuild folds both overlays away.
  EXPECT_LE(index.StalenessRatio(), 0.05);
}

// A directed index has two label sides: the staleness ratio and the
// overlay gauges must count each side's overlay exactly once.
TEST(DynamicDspcTest, StalenessAndGaugesSumBothOverlays) {
  obs::MetricsRegistry registry;
  DynamicOptions options = NoRebuildOptions();
  options.metrics = &registry;
  const DiGraph start = GenerateRandomDiGraph(28, 110, 77);
  DynamicDspcIndex index(start, BuildOptions{}, options);
  DiEdgeMirror mirror(start);
  Rng rng(78);

  for (int step = 0; step < 8; ++step) {
    const EdgeUpdateBatch one = mirror.SampleBatch(rng, 1);
    ASSERT_TRUE(index.Apply(one.Updates()[0]).ok()) << "step " << step;
  }
  const size_t entries = index.OutOverlay().OverlaidEntries() +
                         index.InOverlay().OverlaidEntries();
  const size_t vertices = index.OutOverlay().OverlaidVertices() +
                          index.InOverlay().OverlaidVertices();
  ASSERT_GT(index.OutOverlay().OverlaidEntries(), 0u);
  ASSERT_GT(index.InOverlay().OverlaidEntries(), 0u);
  EXPECT_DOUBLE_EQ(index.StalenessRatio(),
                   static_cast<double>(entries) /
                       static_cast<double>(index.BaseIndex().TotalEntries()));
  EXPECT_EQ(registry.GetGauge(obs::kDynamicOverlayEntries)->Value(),
            static_cast<int64_t>(entries));
  EXPECT_EQ(registry.GetGauge(obs::kDynamicOverlayVertices)->Value(),
            static_cast<int64_t>(vertices));
}

// ------------------------------------------------- pinned repair work

// The directed twin of `ApplyBatchTest.RepairWorkPinned`: a fixed
// 64-update stream (alternately an insert and a delete), update by
// update and in batches of 8, so each batch carries four net
// deletions, with the erasure sweep on 1 and on 4 threads.
TEST(DirectedApplyBatchTest, RepairWorkPinned) {
  const DiGraph graph = GenerateRandomDiGraph(300, 1500, 7);
  const testing::RepairPin want_sequential{3262, 532, 464, 2105, 5897, 909,
                                           0x9e469b2ba960cf9cull};
  const testing::RepairPin want_batched{1514, 531, 467, 2106, 5875, 901,
                                        0x778d122285f3aa8aull};
  DiEdgeMirror mirror(graph);
  Rng rng(29);
  EdgeUpdateBatch stream;
  for (int i = 0; i < 64; ++i) {
    stream.Add(mirror.SampleUpdate(rng, /*remove=*/i % 2 == 1));
  }
  const SpcIndex built =
      BuildDirectedPspcIndex(graph, DirectedDegreeOrder(graph), BuildOptions{})
          .index;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " sweep threads");
    DynamicOptions options = NoRebuildOptions();
    options.num_threads = threads;
    const auto [sequential, batched] =
        testing::RunRepairStream<DynamicDspcIndex>(graph, built, options,
                                                   stream, 8);
    EXPECT_EQ(sequential, want_sequential);
    EXPECT_EQ(batched, want_batched);
  }
}

}  // namespace
}  // namespace pspc
