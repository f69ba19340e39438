// Coalesced ApplyBatch: planner semantics (atomic validation,
// canceling-pair coalescing), the batched ≡ sequential ≡ BFS-oracle
// equivalence across randomized mixed batches with overlapping
// affected hubs, and coalesced deletions over disjoint and overlapping
// regions, whose labels must match a single-threaded twin's byte for
// byte; and the pinned repair work of fixed mixed streams.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/batch_planner.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

BuildOptions SmallBuildOptions() {
  BuildOptions options;
  options.num_landmarks = 4;
  return options;
}

DynamicOptions NoRebuildOptions(int num_threads = 0) {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only
  options.rebuild_options = SmallBuildOptions();
  options.num_threads = num_threads;
  return options;
}

/// Mirror of the evolving edge set, for oracles and batch sampling.
class EdgeMirror {
 public:
  explicit EdgeMirror(const Graph& g) : n_(g.NumVertices()) {
    for (VertexId u = 0; u < n_; ++u) {
      for (const VertexId v : g.Neighbors(u)) {
        if (u < v) edges_.insert({u, v});
      }
    }
  }

  void Apply(const EdgeUpdate& up) {
    const auto key = std::minmax(up.u, up.v);
    if (up.kind == EdgeUpdateKind::kInsert) {
      edges_.insert(key);
    } else {
      edges_.erase(key);
    }
  }

  Graph Materialize() const {
    GraphBuilder builder(n_);
    for (const auto& [u, v] : edges_) builder.AddEdge(u, v);
    return builder.Build();
  }

  /// Random update, valid against the mirrored state (and applied to
  /// it): a delete of an existing edge if `remove`, else an insert of
  /// an absent pair.
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
        if (u != v && !edges_.contains(std::minmax(u, v))) {
          up = {std::min(u, v), std::max(u, v), EdgeUpdateKind::kInsert};
          break;
        }
      }
    }
    Apply(up);
    return up;
  }

  /// Random mixed batch of `size` such updates, deletes and inserts
  /// interleaved at random. Deleting near-random edges of one graph
  /// produces heavily overlapping affected regions by construction.
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

// --------------------------------------------------------- planner

bool NeverCalled(VertexId, VertexId) {
  ADD_FAILURE() << "membership oracle queried unexpectedly";
  return false;
}

TEST(BatchPlannerTest, CoalescesCancelingPairs) {
  EdgeUpdateBatch batch;
  batch.Insert(1, 2);
  batch.Delete(2, 1);  // cancels the insert (order-normalized)
  batch.Insert(3, 4);
  batch.Insert(3, 4);  // duplicate: redundant, not an error
  batch.Delete(5, 6);
  batch.Insert(5, 6);  // delete + reinsert: round trip, no net change
  const auto plan = PlanBatch(batch, [](VertexId u, VertexId v) {
    return u == 5 && v == 6;  // only {5,6} exists up front
  });
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().net_insertions,
            (std::vector<std::pair<VertexId, VertexId>>{{3, 4}}));
  EXPECT_TRUE(plan.value().net_deletions.empty());
  EXPECT_EQ(plan.value().coalesced_updates, 5u);
}

TEST(BatchPlannerTest, RejectsMissingDeleteUpFront) {
  EdgeUpdateBatch batch;
  batch.Insert(0, 1);
  batch.Delete(2, 3);  // never existed
  const auto plan =
      PlanBatch(batch, [](VertexId, VertexId) { return false; });
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
  // The message names the offending update so callers can pinpoint it.
  EXPECT_NE(plan.status().ToString().find("update 1"), std::string::npos);

  // A delete is valid when an earlier insert of the batch created the
  // edge; a second delete of it is not.
  EdgeUpdateBatch redelete;
  redelete.Insert(2, 3);
  redelete.Delete(2, 3);
  redelete.Delete(2, 3);
  EXPECT_EQ(PlanBatch(redelete, [](VertexId, VertexId) { return false; })
                .status()
                .code(),
            Status::Code::kNotFound);
}

TEST(BatchPlannerTest, EmptyBatchNeverTouchesTheOracle) {
  const auto plan = PlanBatch(EdgeUpdateBatch{}, NeverCalled);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().Empty());
}

// ------------------------------------------------- index batch semantics

TEST(ApplyBatchTest, AtomicOnMissingDelete) {
  const Graph g = GenerateCycle(8);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
  const uint64_t gen0 = index.Generation();

  EdgeUpdateBatch bad;
  bad.Insert(0, 4);
  bad.Delete(1, 5);  // missing: the whole batch must reject up front
  EXPECT_EQ(index.ApplyBatch(bad).code(), Status::Code::kNotFound);
  EXPECT_EQ(index.NumEdges(), 8u);
  EXPECT_FALSE(index.HasEdge(0, 4));
  EXPECT_EQ(index.Generation(), gen0);
  for (const auto& [s, t] : testing::AllPairs(8)) {
    EXPECT_EQ(index.Query(s, t), BfsSpcPair(g, s, t));
  }
}

TEST(ApplyBatchTest, CancelingPairsAreNoOps) {
  const Graph g = GenerateCycle(8);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
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
  EXPECT_EQ(index.Stats().TotalHubRuns(), 0u);  // the planner saw through it
  for (const auto& [s, t] : testing::AllPairs(8)) {
    EXPECT_EQ(index.Query(s, t), BfsSpcPair(g, s, t));
  }
}

TEST(ApplyBatchTest, OneGenerationBumpPerBatch) {
  const Graph g = GenerateErdosRenyi(32, 70, 7);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
  EdgeMirror mirror(g);
  Rng rng(99);
  const uint64_t gen0 = index.Generation();
  const EdgeUpdateBatch batch = mirror.SampleBatch(rng, 12);
  ASSERT_TRUE(index.ApplyBatch(batch).ok());
  EXPECT_EQ(index.Generation(), gen0 + 1);
}

// ------------------------------------------------- oracle equivalence

struct BatchCase {
  std::string name;
  Graph (*make)();
  uint64_t seed;
  int num_threads;  // for the batched index; 1 runs the erasure sweep inline
};

Graph MakeEr() { return GenerateErdosRenyi(48, 110, 21); }
Graph MakeBa() { return GenerateBarabasiAlbert(48, 3, 22); }
Graph MakeGrid() { return GenerateRoadGrid(7, 7, 0.9, 0.1, 23); }
Graph MakeSparse() { return GenerateErdosRenyi(48, 40, 24); }  // fragmented
Graph MakeLadder() { return GenerateDiamondLadder(5, 3); }     // tie-heavy

const BatchCase kBatchCases[] = {
    {"erdos_renyi_seq", &MakeEr, 601, 1},
    {"erdos_renyi_par", &MakeEr, 601, 4},
    {"barabasi_albert_seq", &MakeBa, 602, 1},
    {"barabasi_albert_par", &MakeBa, 602, 4},
    {"road_grid_par", &MakeGrid, 603, 4},
    {"sparse_fragmented_par", &MakeSparse, 604, 4},
    {"diamond_ladder_par", &MakeLadder, 605, 4},
};

class BatchOracleTest : public ::testing::TestWithParam<int> {
 protected:
  const BatchCase& Case() const { return kBatchCases[GetParam()]; }
};

// The central acceptance property of the coalesced path: applying a
// mixed batch at once answers exactly like applying it update by
// update, and both match a BFS on the final graph — across graph
// families, with the parallel erasure sweep on and off. Regions of the
// batch's deletions overlap heavily (they come from one 48-vertex
// graph), so hub coalescing and multi-region escalation are exercised,
// not just single-region hubs.
TEST_P(BatchOracleTest, BatchedEqualsSequentialEqualsOracle) {
  const Graph start = Case().make();
  DynamicSpcIndex batched(start, SmallBuildOptions(),
                          NoRebuildOptions(Case().num_threads));
  DynamicSpcIndex sequential(start, SmallBuildOptions(), NoRebuildOptions());
  EdgeMirror mirror(start);
  Rng rng(Case().seed);

  for (int round = 0; round < 6; ++round) {
    const size_t size = round < 3 ? 8 : 20;  // small and larger batches
    const EdgeUpdateBatch batch = mirror.SampleBatch(rng, size);
    ASSERT_TRUE(batched.ApplyBatch(batch).ok())
        << Case().name << " round " << round;
    for (const EdgeUpdate& up : batch) {
      // Sequential reference: strict single-update semantics, which
      // SampleBatch guarantees are valid.
      ASSERT_TRUE(sequential.Apply(up).ok())
          << Case().name << " round " << round;
    }
    const Graph current = mirror.Materialize();
    ASSERT_EQ(batched.NumEdges(), mirror.NumEdges());
    for (const auto& [s, t] : testing::AllPairs(current.NumVertices())) {
      const SpcResult oracle = BfsSpcPair(current, s, t);
      ASSERT_EQ(batched.Query(s, t), oracle)
          << Case().name << " round " << round << " batched pair (" << s
          << "," << t << ")";
      ASSERT_EQ(sequential.Query(s, t), oracle)
          << Case().name << " round " << round << " sequential pair (" << s
          << "," << t << ")";
    }
  }
  EXPECT_EQ(batched.Stats().rebuilds, 0u);
  // The point of coalescing: the batched index never launches more
  // per-hub repairs than update-by-update application.
  EXPECT_LE(batched.Stats().TotalHubRuns(),
            sequential.Stats().TotalHubRuns());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, BatchOracleTest,
    ::testing::Range(0, static_cast<int>(std::size(kBatchCases))),
    [](const ::testing::TestParamInfo<int>& info) {
      return kBatchCases[info.param].name;
    });

// ------------------------------------------- disjoint and overlapping

/// Several disconnected communities: deletions in different
/// communities have pairwise disjoint affected regions, so every hub
/// task of a batch writes a region no other task reads.
Graph MakeCommunities(VertexId communities, VertexId size, EdgeId edges,
                      uint64_t seed) {
  GraphBuilder builder(communities * size);
  for (VertexId c = 0; c < communities; ++c) {
    const Graph part = GenerateErdosRenyi(size, edges, seed + c);
    for (VertexId u = 0; u < size; ++u) {
      for (const VertexId v : part.Neighbors(u)) {
        if (u < v) builder.AddEdge(c * size + u, c * size + v);
      }
    }
  }
  return builder.Build();
}

/// The multi-threaded index must leave exactly the labels of its
/// `num_threads = 1` twin: the same (hub rank, distance, count) entries
/// at every vertex.
void ExpectSameLabels(const DynamicSpcIndex& index,
                      const DynamicSpcIndex& twin, int round) {
  for (VertexId v = 0; v < twin.NumVertices(); ++v) {
    const std::span<const LabelEntry> got = index.Labels(v);
    const std::span<const LabelEntry> want = twin.Labels(v);
    ASSERT_EQ(got.size(), want.size())
        << "round " << round << " vertex " << v;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].hub_rank, want[i].hub_rank)
          << "round " << round << " vertex " << v << " entry " << i;
      ASSERT_EQ(got[i].dist, want[i].dist)
          << "round " << round << " vertex " << v << " entry " << i;
      ASSERT_EQ(got[i].count, want[i].count)
          << "round " << round << " vertex " << v << " entry " << i;
    }
  }
}

/// ... and do exactly its repair work.
void ExpectSameRepairWork(const DynamicStats& got, const DynamicStats& want) {
  EXPECT_EQ(got.affected_hubs, want.affected_hubs);
  EXPECT_EQ(got.subtract_repairs, want.subtract_repairs);
  EXPECT_EQ(got.entries_inserted, want.entries_inserted);
  EXPECT_EQ(got.entries_renewed, want.entries_renewed);
  EXPECT_EQ(got.entries_erased, want.entries_erased);
}

TEST(ApplyBatchTest, DisjointDeletionsStayExact) {
  const Graph start = MakeCommunities(6, 16, 34, 41);
  DynamicSpcIndex index(start, SmallBuildOptions(),
                        NoRebuildOptions(/*num_threads=*/4));
  DynamicSpcIndex twin(start, SmallBuildOptions(),
                       NoRebuildOptions(/*num_threads=*/1));
  EdgeMirror mirror(start);
  Rng rng(4242);

  for (int round = 0; round < 4; ++round) {
    // One deletion per community: pairwise disjoint affected regions.
    EdgeUpdateBatch batch;
    std::vector<std::pair<VertexId, VertexId>> live;
    const Graph current = mirror.Materialize();
    for (VertexId c = 0; c < 6; ++c) {
      live.clear();
      for (VertexId u = c * 16; u < (c + 1) * 16; ++u) {
        for (const VertexId v : current.Neighbors(u)) {
          if (u < v) live.push_back({u, v});
        }
      }
      ASSERT_FALSE(live.empty());
      const auto [u, v] = live[rng.NextBounded(live.size())];
      batch.Delete(u, v);
      mirror.Apply({u, v, EdgeUpdateKind::kDelete});
    }
    ASSERT_TRUE(index.ApplyBatch(batch).ok()) << "round " << round;
    ASSERT_TRUE(twin.ApplyBatch(batch).ok()) << "round " << round;
    ASSERT_NO_FATAL_FAILURE(ExpectSameLabels(index, twin, round));

    const Graph now = mirror.Materialize();
    for (const auto& [s, t] : testing::AllPairs(now.NumVertices())) {
      ASSERT_EQ(index.Query(s, t), BfsSpcPair(now, s, t))
          << "round " << round << " pair (" << s << "," << t << ")";
    }
  }
  ExpectSameRepairWork(index.Stats(), twin.Stats());
}

TEST(ApplyBatchTest, OverlappingDeletionsStayExact) {
  // The adversarial counterpart: deletions clustered in one dense
  // graph, so the affected regions of a batch overlap and shared hubs
  // escalate to full re-runs over the union of their regions.
  const Graph start = GenerateWattsStrogatz(64, 4, 0.3, 51);
  DynamicSpcIndex index(start, SmallBuildOptions(),
                        NoRebuildOptions(/*num_threads=*/4));
  DynamicSpcIndex twin(start, SmallBuildOptions(),
                       NoRebuildOptions(/*num_threads=*/1));
  EdgeMirror mirror(start);
  Rng rng(5151);

  for (int round = 0; round < 5; ++round) {
    const EdgeUpdateBatch batch = mirror.SampleBatch(rng, 14);
    ASSERT_TRUE(index.ApplyBatch(batch).ok());
    ASSERT_TRUE(twin.ApplyBatch(batch).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSameLabels(index, twin, round));
    const Graph now = mirror.Materialize();
    for (const auto& [s, t] : testing::AllPairs(now.NumVertices())) {
      ASSERT_EQ(index.Query(s, t), BfsSpcPair(now, s, t))
          << "round " << round << " pair (" << s << "," << t << ")";
    }
  }
  ExpectSameRepairWork(index.Stats(), twin.Stats());
}

// ------------------------------------------------- pinned repair work

// Exact answers do not show which repair ran, so this pins it: the
// repair work and the labels a fixed 64-update stream (alternately an
// insert and a delete) leaves, update by update and in batches of 8,
// with the erasure sweep on 1 and on 4 threads. The grid's batches run
// the coalesced deletion driver; the BA graph's cut over to replaying
// their deletions edge by edge. A deliberate repair change updates
// these pins in a commit of its own.
TEST(ApplyBatchTest, RepairWorkPinned) {
  struct PinCase {
    const char* name;
    Graph graph;
    testing::RepairPin sequential;
    testing::RepairPin batched;
  };
  const PinCase cases[] = {
      {"barabasi_albert",
       GenerateBarabasiAlbert(400, 3, 11),
       {1311, 248, 256, 906, 1313, 493, 0xdfffe2ba2e718e4dull},
       {601, 246, 255, 903, 1308, 489, 0x65f42e3f301eb2b5ull}},
      {"road_grid",
       GenerateRoadGrid(12, 12, 0.9, 0.0, 3),
       {979, 488, 472, 1933, 13380, 2944, 0x5fa4a6386049ecddull},
       {446, 657, 306, 1948, 11636, 3009, 0xe85ea7202a864a7dull}},
  };
  for (const PinCase& c : cases) {
    EdgeMirror mirror(c.graph);
    Rng rng(29);
    EdgeUpdateBatch stream;
    for (int i = 0; i < 64; ++i) {
      stream.Add(mirror.SampleUpdate(rng, /*remove=*/i % 2 == 1));
    }
    const SpcIndex built = BuildIndex(c.graph, SmallBuildOptions()).index;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << c.name << ", " << threads
                                        << " sweep threads");
      const auto [sequential, batched] =
          testing::RunRepairStream<DynamicSpcIndex>(
              c.graph, built, NoRebuildOptions(threads), stream, 8);
      EXPECT_EQ(sequential, c.sequential);
      EXPECT_EQ(batched, c.batched);
    }
  }
}

}  // namespace
}  // namespace pspc
