// Concurrent-correctness stress for background overlay compaction,
// written to run clean under ThreadSanitizer (CI runs every serving_*
// test in the tsan lane): reader threads hammer the engine while the
// writer applies a randomized update stream AND the engine's own
// compaction thread folds the overlay between captures. At every
// quiesce point served answers must be oracle-exact — a fold drops
// only stale entries, never changes a result.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/serve/serving_engine.h"

namespace pspc {
namespace {

constexpr int kReaders = 2;
constexpr int kRounds = 8;
constexpr size_t kUpdatesPerRound = 5;
constexpr size_t kReaderBatch = 8;
constexpr size_t kOracleChecks = 20;
constexpr VertexId kN = 40;

BuildOptions SmallBuild() {
  BuildOptions build;
  build.num_landmarks = 4;
  build.num_threads = 1;
  return build;
}

ServingOptions CompactingServingOptions() {
  ServingOptions serving;
  serving.num_workers = 2;
  serving.max_batch = 16;
  serving.enable_compaction = true;
  serving.compaction_interval_ms = 1;  // fire constantly under churn
  serving.compaction.fold_staleness_ratio = 0.01;  // fold eagerly
  return serving;
}

TEST(ServingCompactionTest, ReadersExactWhileCompactionRuns) {
  DynamicOptions dynamic;
  dynamic.rebuild_threshold = 1e18;  // repair-only: compaction owns folds
  dynamic.rebuild_options = SmallBuild();
  dynamic.num_threads = 1;

  const Graph graph = GenerateErdosRenyi(kN, 85, 23);
  DynamicSpcIndex index(graph, SmallBuild(), dynamic);
  ServingEngine engine(&index, CompactingServingOptions());

  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < kN; ++u) {
    for (const VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7000 + static_cast<uint64_t>(r));
      // relaxed: stop/progress flag only; thread join is the sync point.
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryBatch batch = MakeRandomQueries(kN, kReaderBatch, rng.Next());
        const std::vector<SpcResult> results = engine.SubmitBatch(batch).get();
        // Mid-churn, mid-compaction answers are exact for *some* recent
        // generation; the structural invariants hold for all of them.
        for (size_t i = 0; i < batch.size(); ++i) {
          const auto [s, t] = batch[i];
          if (s == t) {
            EXPECT_EQ(results[i], (SpcResult{0, 1}));
          } else if (results[i].distance == kInfSpcDistance) {
            EXPECT_EQ(results[i].count, 0u);
          } else {
            EXPECT_GT(results[i].count, 0u);
          }
        }
      }
    });
  }

  Rng rng(90210);
  uint64_t oracle_mismatches = 0;
  for (int round = 0; round < kRounds; ++round) {
    EdgeUpdateBatch batch;
    for (size_t i = 0; i < kUpdatesPerRound; ++i) {
      const bool remove = !edges.empty() && rng.NextBool(0.5);
      if (remove) {
        auto it = edges.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
        batch.Delete(it->first, it->second);
        edges.erase(it);
      } else {
        VertexId u, v;
        do {
          u = static_cast<VertexId>(rng.NextBounded(kN));
          v = static_cast<VertexId>(rng.NextBounded(kN));
        } while (u == v || edges.contains(std::minmax(u, v)));
        batch.Insert(u, v);
        edges.insert(std::minmax(u, v));
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

    // Quiesce: drain in-flight queries, then demand oracle-exact
    // answers for the now-current graph. The compaction thread keeps
    // running — by construction its folds drop only stale entries,
    // never change an answer.
    engine.Drain();
    ASSERT_EQ(index.NumEdges(), edges.size());
    const Graph current = index.MaterializeGraph();
    const QueryBatch checks = MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      if (served[i] != BfsSpcPair(current, s, t)) ++oracle_mismatches;
      EXPECT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
  }

  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Force one deterministic step before stopping so the totals below
  // never depend on background-thread timing.
  engine.CompactOnce();
  engine.Stop();

  EXPECT_EQ(oracle_mismatches, 0u);
  const CompactionStats totals = engine.CompactionTotals();
  EXPECT_GT(totals.folds, 0u);
}

TEST(ServingCompactionTest, CompactOnceIsDeterministicAndExact) {
  DynamicOptions dynamic;
  dynamic.rebuild_threshold = 1e18;
  dynamic.rebuild_options = SmallBuild();
  dynamic.num_threads = 1;

  const Graph graph = GenerateWattsStrogatz(kN, 3, 0.2, 5);
  DynamicSpcIndex index(graph, SmallBuild(), dynamic);
  ServingOptions serving = CompactingServingOptions();
  serving.compaction_interval_ms = 3600 * 1000;  // thread idles; we drive
  serving.compaction.fold_staleness_ratio = 0.0;  // every step folds
  ServingEngine engine(&index, serving);

  Rng rng(61);
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < kN; ++u) {
    for (const VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  for (int round = 0; round < 4; ++round) {
    EdgeUpdateBatch batch;
    VertexId u, v;
    do {
      u = static_cast<VertexId>(rng.NextBounded(kN));
      v = static_cast<VertexId>(rng.NextBounded(kN));
    } while (u == v || edges.contains(std::minmax(u, v)));
    batch.Insert(u, v);
    edges.insert(std::minmax(u, v));
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

    // The repaired overlay is non-empty, so a zero-threshold step must
    // fold (and therefore report true).
    EXPECT_TRUE(engine.CompactOnce());
    // Overlay folded away: a second immediate step has nothing to do.
    EXPECT_FALSE(engine.CompactOnce());

    engine.Drain();
    const Graph current = index.MaterializeGraph();
    const QueryBatch checks = MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      ASSERT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
  }
  engine.Stop();
  const CompactionStats totals = engine.CompactionTotals();
  EXPECT_EQ(totals.folds, 4u);
  EXPECT_EQ(index.Overlay().OverlaidVertices(), 0u);
}

}  // namespace
}  // namespace pspc
