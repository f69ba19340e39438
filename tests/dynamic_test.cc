#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/dynamic_graph.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

BuildOptions SmallBuildOptions() {
  BuildOptions options;
  options.num_landmarks = 4;
  return options;
}

DynamicOptions NoRebuildOptions() {
  // Repair-only: an absurd threshold so every answer comes from the
  // incremental path, never from a rescue rebuild.
  DynamicOptions options;
  options.rebuild_threshold = 1e18;
  options.rebuild_options = SmallBuildOptions();
  return options;
}

/// Mirror of the evolving edge set, for oracles and update sampling.
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

  /// Random valid update: ~half deletions of existing edges, ~half
  /// insertions of currently absent pairs.
  EdgeUpdate Sample(Rng& rng) {
    const bool remove = !edges_.empty() && rng.NextBool(0.5);
    if (remove) {
      auto it = edges_.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(edges_.size())));
      return {it->first, it->second, EdgeUpdateKind::kDelete};
    }
    while (true) {
      const auto u = static_cast<VertexId>(rng.NextBounded(n_));
      const auto v = static_cast<VertexId>(rng.NextBounded(n_));
      if (u == v) continue;
      if (!edges_.contains(std::minmax(u, v))) {
        return {std::min(u, v), std::max(u, v), EdgeUpdateKind::kInsert};
      }
    }
  }

  size_t NumEdges() const { return edges_.size(); }

 private:
  VertexId n_;
  std::set<std::pair<VertexId, VertexId>> edges_;
};

void ExpectAllPairsMatchOracle(const DynamicSpcIndex& index, const Graph& g,
                               const std::string& context) {
  for (const auto& [s, t] : testing::AllPairs(g.NumVertices())) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << context << " pair (" << s << "," << t << ")";
  }
}

// ------------------------------------------------- randomized streams

struct StreamCase {
  std::string name;
  Graph (*make)();
  uint64_t seed;
};

Graph MakeEr() { return GenerateErdosRenyi(40, 90, 11); }
Graph MakeBa() { return GenerateBarabasiAlbert(40, 3, 12); }
Graph MakeWs() { return GenerateWattsStrogatz(40, 3, 0.2, 13); }
Graph MakeGrid() { return GenerateRoadGrid(6, 6, 0.9, 0.1, 14); }
Graph MakeLadder() { return GenerateDiamondLadder(5, 3); }
Graph MakeSparse() { return GenerateErdosRenyi(40, 30, 15); }  // fragmented

const StreamCase kStreamCases[] = {
    {"erdos_renyi", &MakeEr, 501},
    {"barabasi_albert", &MakeBa, 502},
    {"watts_strogatz", &MakeWs, 503},
    {"road_grid", &MakeGrid, 504},
    {"diamond_ladder", &MakeLadder, 505},
    {"sparse_fragmented", &MakeSparse, 506},
};

class DynamicStreamTest : public ::testing::TestWithParam<int> {
 protected:
  const StreamCase& Case() const { return kStreamCases[GetParam()]; }
};

// The central acceptance property: along a random insert/delete
// stream, every query answer matches a BFS on the current graph (and
// hence a freshly rebuilt index, which the static suite pins to the
// oracle).
TEST_P(DynamicStreamTest, QueriesMatchOracleAfterEveryUpdate) {
  const Graph start = Case().make();
  DynamicSpcIndex index(start, SmallBuildOptions(), NoRebuildOptions());
  EdgeMirror mirror(start);
  Rng rng(Case().seed);

  for (int step = 0; step < 50; ++step) {
    const EdgeUpdate up = mirror.Sample(rng);
    ASSERT_TRUE(index.Apply(up).ok()) << Case().name << " step " << step;
    mirror.Apply(up);
    const Graph current = mirror.Materialize();
    ExpectAllPairsMatchOracle(index, current,
                              Case().name + " step " + std::to_string(step));
  }
  EXPECT_EQ(index.Stats().rebuilds, 0u);
  EXPECT_EQ(index.NumEdges(), mirror.NumEdges());
}

// Same stream, but compared against a from-scratch rebuild: the
// maintained index must answer exactly like one built on the final
// graph (entries may differ — stale labels are allowed — but every
// query must agree).
TEST_P(DynamicStreamTest, FinalStateMatchesFreshRebuild) {
  const Graph start = Case().make();
  DynamicSpcIndex index(start, SmallBuildOptions(), NoRebuildOptions());
  EdgeMirror mirror(start);
  Rng rng(Case().seed + 1000);

  for (int step = 0; step < 40; ++step) {
    const EdgeUpdate up = mirror.Sample(rng);
    ASSERT_TRUE(index.Apply(up).ok());
    mirror.Apply(up);
  }
  const Graph final_graph = mirror.Materialize();
  const SpcIndex fresh = BuildIndex(final_graph, SmallBuildOptions()).index;
  for (const auto& [s, t] : testing::AllPairs(final_graph.NumVertices())) {
    ASSERT_EQ(index.Query(s, t), fresh.Query(s, t))
        << Case().name << " pair (" << s << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DynamicStreamTest,
    ::testing::Range(0, static_cast<int>(std::size(kStreamCases))),
    [](const ::testing::TestParamInfo<int>& info) {
      return kStreamCases[info.param].name;
    });

// Regression: a stale label entry left behind by an insertion (stored
// distance longer than the true one, harmless at first) must not leak
// into answers when a later *deletion* grows the true distance to meet
// it. Needs a larger graph and a long mixed stream to manifest, which
// is why this runs beyond the 40-vertex family sweep above.
TEST(DynamicStreamRegressionTest, StaleEntryMeetsGrownDistance) {
  const Graph start = GenerateErdosRenyi(96, 220, 8);
  DynamicSpcIndex index(start, SmallBuildOptions(), NoRebuildOptions());
  EdgeMirror mirror(start);
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 96; ++u) {
    for (const VertexId v : start.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  // The exact draw sequence that produced the original failure at step
  // 88 (a rejected insertion consumes one draw and moves on).
  Rng rng(902);
  int applied = 0;
  while (applied < 95) {
    EdgeUpdate up;
    if (!edges.empty() && rng.NextBool(0.5)) {
      auto it = edges.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
      up = {it->first, it->second, EdgeUpdateKind::kDelete};
      edges.erase(it);
    } else {
      const auto u = static_cast<VertexId>(rng.NextBounded(96));
      const auto v = static_cast<VertexId>(rng.NextBounded(96));
      if (u == v || edges.contains(std::minmax(u, v))) continue;
      up = {std::min(u, v), std::max(u, v), EdgeUpdateKind::kInsert};
      edges.insert(std::minmax(u, v));
    }
    ASSERT_TRUE(index.Apply(up).ok());
    mirror.Apply(up);
    ++applied;
    ExpectAllPairsMatchOracle(index, mirror.Materialize(),
                              "er96 step " + std::to_string(applied));
  }
}

// ------------------------------------------------- targeted scenarios

TEST(DynamicSpcIndexTest, InsertBridgesTwoComponents) {
  // Two disjoint paths; the inserted edge is the only crossing.
  GraphBuilder b(8);
  for (VertexId v = 0; v + 1 < 4; ++v) {
    b.AddEdge(v, v + 1);
    b.AddEdge(v + 4, v + 5);
  }
  const Graph g = b.Build();
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
  EXPECT_EQ(index.Query(0, 7).distance, kInfSpcDistance);

  ASSERT_TRUE(index.InsertEdge(3, 4).ok());
  EXPECT_EQ(index.Query(0, 7), (SpcResult{7, 1}));
  EXPECT_EQ(index.Query(3, 4), (SpcResult{1, 1}));

  EdgeMirror mirror(g);
  mirror.Apply({3, 4, EdgeUpdateKind::kInsert});
  ExpectAllPairsMatchOracle(index, mirror.Materialize(), "bridge insert");
}

TEST(DynamicSpcIndexTest, DeleteBridgeDisconnects) {
  const Graph g = GeneratePath(9);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
  ASSERT_TRUE(index.DeleteEdge(4, 5).ok());
  EXPECT_EQ(index.Query(0, 8).distance, kInfSpcDistance);
  EXPECT_EQ(index.Query(0, 4), (SpcResult{4, 1}));
  EXPECT_EQ(index.Query(5, 8), (SpcResult{3, 1}));
}

TEST(DynamicSpcIndexTest, ParallelShortestPathCountsUpdate) {
  // A 4-cycle has two shortest paths between opposite corners; adding
  // a chord changes distance, deleting restores.
  const Graph g = GenerateCycle(4);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());
  EXPECT_EQ(index.Query(0, 2), (SpcResult{2, 2}));

  ASSERT_TRUE(index.InsertEdge(0, 2).ok());
  EXPECT_EQ(index.Query(0, 2), (SpcResult{1, 1}));

  ASSERT_TRUE(index.DeleteEdge(0, 2).ok());
  EXPECT_EQ(index.Query(0, 2), (SpcResult{2, 2}));
}

TEST(DynamicSpcIndexTest, UpdateErrorsLeaveIndexUntouched) {
  const Graph g = GenerateCycle(6);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());

  EXPECT_EQ(index.InsertEdge(0, 0).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.InsertEdge(0, 1).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.InsertEdge(0, 99).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.DeleteEdge(0, 3).code(), Status::Code::kNotFound);
  EXPECT_EQ(index.DeleteEdge(0, 99).code(), Status::Code::kInvalidArgument);

  EXPECT_EQ(index.NumEdges(), 6u);
  ExpectAllPairsMatchOracle(index, g, "after rejected updates");
}

TEST(DynamicSpcIndexTest, StalenessPolicyTriggersRebuild) {
  DynamicOptions options;
  options.rebuild_threshold = 0.0;  // any overlay growth forces a rebuild
  options.rebuild_options = SmallBuildOptions();
  const Graph g = GenerateErdosRenyi(32, 70, 21);
  DynamicSpcIndex index(g, SmallBuildOptions(), options);
  EdgeMirror mirror(g);
  Rng rng(99);

  for (int step = 0; step < 8; ++step) {
    const EdgeUpdate up = mirror.Sample(rng);
    ASSERT_TRUE(index.Apply(up).ok());
    mirror.Apply(up);
  }
  EXPECT_GT(index.Stats().rebuilds, 0u);
  EXPECT_NEAR(index.StalenessRatio(), 0.0, 1e-12);  // overlay folded away
  ExpectAllPairsMatchOracle(index, mirror.Materialize(), "post rebuild");
}

// An undirected index has one label side, so the staleness ratio and
// the overlay gauges must equal that one overlay's counts. Counting it
// twice would fire the staleness rebuild at half the threshold while
// every oracle test stayed green.
TEST(DynamicSpcIndexTest, StalenessAndGaugesCountTheOverlayOnce) {
  obs::MetricsRegistry registry;
  DynamicOptions options = NoRebuildOptions();
  options.metrics = &registry;
  const Graph g = GenerateErdosRenyi(32, 70, 21);
  DynamicSpcIndex index(g, SmallBuildOptions(), options);
  EdgeMirror mirror(g);
  Rng rng(99);

  for (int step = 0; step < 8; ++step) {
    const EdgeUpdate up = mirror.Sample(rng);
    ASSERT_TRUE(index.Apply(up).ok());
    mirror.Apply(up);
  }
  const size_t entries = index.Overlay().OverlaidEntries();
  const size_t vertices = index.Overlay().OverlaidVertices();
  ASSERT_GT(entries, 0u);
  EXPECT_DOUBLE_EQ(index.StalenessRatio(),
                   static_cast<double>(entries) /
                       static_cast<double>(index.BaseIndex().TotalEntries()));
  EXPECT_EQ(registry.GetGauge(obs::kDynamicOverlayEntries)->Value(),
            static_cast<int64_t>(entries));
  EXPECT_EQ(registry.GetGauge(obs::kDynamicOverlayVertices)->Value(),
            static_cast<int64_t>(vertices));
}

TEST(DynamicSpcIndexTest, ApplyBatchValidatesUpFront) {
  const Graph g = GenerateCycle(5);
  DynamicSpcIndex index(g, SmallBuildOptions(), NoRebuildOptions());

  EdgeUpdateBatch bad;
  bad.Insert(0, 2);
  bad.Insert(3, 3);  // self-loop: rejected before anything applies
  EXPECT_EQ(index.ApplyBatch(bad).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(index.NumEdges(), 5u);

  EdgeUpdateBatch good;
  good.Insert(0, 2);
  good.Delete(0, 1);
  ASSERT_TRUE(index.ApplyBatch(good).ok());
  EXPECT_EQ(index.NumEdges(), 5u);
  EXPECT_EQ(index.Stats().insertions_applied, 1u);
  EXPECT_EQ(index.Stats().deletions_applied, 1u);
}

TEST(DynamicSpcIndexTest, WrapsPrebuiltIndex) {
  const Graph g = GenerateBarabasiAlbert(48, 3, 31);
  SpcIndex built = BuildIndex(g, SmallBuildOptions()).index;
  DynamicSpcIndex index(g, std::move(built), NoRebuildOptions());
  ASSERT_TRUE(index.InsertEdge(0, 47).ok() ||
              index.DeleteEdge(0, 47).ok());  // one of the two must apply
  EdgeMirror mirror(g);
  mirror.Apply({0, 47,
                g.HasEdge(0, 47) ? EdgeUpdateKind::kDelete
                                 : EdgeUpdateKind::kInsert});
  ExpectAllPairsMatchOracle(index, mirror.Materialize(), "prebuilt wrap");
}

TEST(DynamicSpcIndexDeathTest, RejectsDirectedIndex) {
  const Graph g = GeneratePath(4);
  const DiGraph closure = FromUndirected(g);
  SpcIndex directed =
      BuildDirectedPspcIndex(closure, DirectedDegreeOrder(closure),
                             BuildOptions{.num_threads = 1})
          .index;
  EXPECT_DEATH(DynamicSpcIndex(g, std::move(directed)),
               "needs an undirected index");
}

// ------------------------------------------------------ dynamic graph

TEST(DynamicGraphTest, OverlayMatchesMaterialized) {
  const Graph g = GenerateErdosRenyi(24, 50, 41);
  DynamicGraph view(&g);
  EXPECT_EQ(view.NumEdges(), g.NumEdges());

  ASSERT_TRUE(view.AddEdge(0, 23).ok() || view.RemoveEdge(0, 23).ok());
  const Graph snapshot = view.Materialize();
  EXPECT_EQ(snapshot.NumEdges(), view.NumEdges());
  for (VertexId u = 0; u < 24; ++u) {
    std::vector<VertexId> seen;
    view.ForEachOutNeighbor(u, [&](VertexId w) { seen.push_back(w); });
    std::sort(seen.begin(), seen.end());
    const auto expected = snapshot.Neighbors(u);
    ASSERT_EQ(seen.size(), expected.size()) << "vertex " << u;
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expected.begin()));
  }
}

TEST(DynamicGraphTest, AddRemoveRoundTrip) {
  const Graph g = GeneratePath(5);
  DynamicGraph view(&g);
  ASSERT_TRUE(view.AddEdge(0, 4).ok());
  EXPECT_TRUE(view.HasEdge(0, 4));
  EXPECT_EQ(view.AddEdge(4, 0).code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(view.RemoveEdge(4, 0).ok());
  EXPECT_FALSE(view.HasEdge(0, 4));
  ASSERT_TRUE(view.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(view.AddEdge(2, 1).ok());  // un-remove a base edge
  EXPECT_EQ(view.NumEdges(), g.NumEdges());
  EXPECT_EQ(view.Materialize(), g);
}

TEST(DynamicGraphTest, DirectedOverlayMatchesMaterialized) {
  const DiGraph g = GenerateRandomDiGraph(24, 80, 43);
  DynamicGraph view(&g);
  std::set<std::pair<VertexId, VertexId>> arcs;
  for (VertexId u = 0; u < 24; ++u) {
    for (const VertexId v : g.OutNeighbors(u)) arcs.insert({u, v});
  }
  const auto random_arc = [&](Rng& rng) {
    auto it = arcs.begin();
    std::advance(it, static_cast<long>(rng.NextBounded(arcs.size())));
    return *it;
  };

  Rng rng(43);
  std::vector<std::pair<VertexId, VertexId>> removed_base;
  for (int step = 0; step < 60; ++step) {
    // Cycle through: remove a live arc, toggle the reverse of a live
    // arc, un-remove a removed base arc, toggle a random ordered pair.
    std::pair<VertexId, VertexId> arc;
    if (step % 4 == 0) {
      arc = random_arc(rng);
    } else if (step % 4 == 1) {
      const auto [u, v] = random_arc(rng);
      arc = {v, u};
    } else if (step % 4 == 2 && !removed_base.empty()) {
      arc = removed_base.back();
      removed_base.pop_back();
    } else {
      do {
        arc = {static_cast<VertexId>(rng.NextBounded(24)),
               static_cast<VertexId>(rng.NextBounded(24))};
      } while (arc.first == arc.second);
    }
    const auto [u, v] = arc;
    if (arcs.erase(arc) != 0) {
      ASSERT_TRUE(view.RemoveEdge(u, v).ok()) << "step " << step;
      if (g.HasEdge(u, v)) removed_base.push_back(arc);
    } else {
      ASSERT_TRUE(view.AddEdge(u, v).ok()) << "step " << step;
      arcs.insert(arc);
    }
    EXPECT_EQ(view.HasEdge(u, v), arcs.contains({u, v})) << "step " << step;
    EXPECT_EQ(view.HasEdge(v, u), arcs.contains({v, u})) << "step " << step;

    const DiGraph snapshot = view.Materialize();
    ASSERT_TRUE(snapshot == MakeDiGraph(24, {arcs.begin(), arcs.end()}))
        << "step " << step;
    ASSERT_EQ(view.NumEdges(), arcs.size()) << "step " << step;
    for (VertexId x = 0; x < 24; ++x) {
      std::vector<VertexId> out, in;
      view.ForEachOutNeighbor(x, [&](VertexId w) { out.push_back(w); });
      view.ForEachInNeighbor(x, [&](VertexId w) { in.push_back(w); });
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      const auto want_out = snapshot.OutNeighbors(x);
      const auto want_in = snapshot.InNeighbors(x);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), want_out.begin(),
                             want_out.end()))
          << "step " << step << " vertex " << x;
      ASSERT_TRUE(
          std::equal(in.begin(), in.end(), want_in.begin(), want_in.end()))
          << "step " << step << " vertex " << x;
    }
  }
  EXPECT_EQ(view.AddEdge(5, 5).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(view.RemoveEdge(5, 5).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(view.AddEdge(0, 24).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(view.RemoveEdge(24, 0).code(), Status::Code::kInvalidArgument);
}

// ------------------------------------------------------ update stream IO

TEST(EdgeUpdateTest, ParseAndRoundTrip) {
  const auto parsed = ParseUpdateStream(
      "# churn\n"
      "i 3 17\n"
      "d 17 3\n"
      "\n"
      "i 0 1\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const EdgeUpdateBatch& batch = parsed.value();
  ASSERT_EQ(batch.Size(), 3u);
  EXPECT_EQ(batch.Updates()[0], (EdgeUpdate{3, 17, EdgeUpdateKind::kInsert}));
  EXPECT_EQ(batch.Updates()[1], (EdgeUpdate{17, 3, EdgeUpdateKind::kDelete}));

  const std::string path = ::testing::TempDir() + "/updates.txt";
  ASSERT_TRUE(SaveUpdateStream(batch, path).ok());
  const auto reloaded = LoadUpdateStream(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().Updates(), batch.Updates());
}

TEST(EdgeUpdateTest, ParseRejectsGarbage) {
  EXPECT_EQ(ParseUpdateStream("x 1 2\n").status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(ParseUpdateStream("i 1\n").status().code(),
            Status::Code::kCorruption);
  // Trailing garbage is corruption, not a silently accepted update.
  EXPECT_EQ(ParseUpdateStream("i 1 2 junk\n").status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(ParseUpdateStream("d 3 4 5\n").status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(LoadUpdateStream("/nonexistent/updates.txt").status().code(),
            Status::Code::kIOError);
}

TEST(EdgeUpdateTest, ValidateChecksUniverse) {
  EdgeUpdateBatch batch;
  batch.Insert(0, 9);
  EXPECT_EQ(batch.Validate(10).code(), Status::Code::kOk);
  EXPECT_EQ(batch.Validate(9).code(), Status::Code::kOutOfRange);
  batch.Delete(2, 2);
  EXPECT_EQ(batch.Validate(10).code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace pspc
