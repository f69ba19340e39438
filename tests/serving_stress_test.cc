// Concurrent-correctness stress for the serving subsystem, written to
// run clean under ThreadSanitizer (see the CI tsan job): reader
// threads hammer the engine with query batches while the writer
// applies a randomized insert/delete stream, and at quiesce points
// every served answer is checked against a BFS oracle on the live
// graph. All OpenMP knobs are pinned to one thread — libgomp is not
// TSan-instrumented, and a team of one never spawns — so every thread
// TSan watches is one of ours.

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

constexpr int kReaders = 3;
constexpr int kRounds = 8;
constexpr size_t kUpdatesPerRound = 6;
constexpr size_t kReaderBatch = 8;
constexpr size_t kOracleChecks = 24;
constexpr VertexId kN = 48;

/// Parks reader threads at quiesce points: readers CheckIn between
/// batches; the writer pauses them all, verifies, and resumes.
class QuiesceGate {
 public:
  void Pause(int readers) {
    spc::MutexLock lock(mu_);
    pause_ = true;
    while (parked_ != readers) parked_cv_.Wait(mu_);
  }

  void Resume() {
    {
      spc::MutexLock lock(mu_);
      pause_ = false;
    }
    resume_cv_.NotifyAll();
  }

  void CheckIn() {
    spc::MutexLock lock(mu_);
    if (!pause_) return;
    ++parked_;
    parked_cv_.NotifyAll();
    while (pause_) resume_cv_.Wait(mu_);
    --parked_;
  }

 private:
  spc::Mutex mu_{spc::LockRank::kClient};
  spc::CondVar parked_cv_;
  spc::CondVar resume_cv_;
  int parked_ GUARDED_BY(mu_) = 0;
  bool pause_ GUARDED_BY(mu_) = false;
};

void RunStress(double rebuild_threshold) {
  BuildOptions build;
  build.num_landmarks = 4;
  build.num_threads = 1;
  DynamicOptions dynamic;
  dynamic.rebuild_threshold = rebuild_threshold;
  dynamic.rebuild_options = build;
  dynamic.num_threads = 1;

  const Graph graph = GenerateErdosRenyi(kN, 100, 7);
  DynamicSpcIndex index(graph, build, dynamic);

  ServingOptions serving;
  serving.num_workers = 2;
  serving.max_batch = 16;
  ServingEngine engine(&index, serving);

  // Evolving edge set mirrored writer-side, for drawing valid updates.
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < kN; ++u) {
    for (const VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }

  QuiesceGate gate;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      // relaxed: stop/progress flag only; thread join is the sync point.
      while (!stop.load(std::memory_order_relaxed)) {
        gate.CheckIn();
        const QueryBatch batch =
            MakeRandomQueries(kN, kReaderBatch, rng.Next());
        const std::vector<SpcResult> results =
            engine.SubmitBatch(batch).get();
        // Mid-churn answers are exact for *some* recent generation;
        // structural invariants must hold for every one of them.
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

  Rng rng(4242);
  for (int round = 0; round < kRounds; ++round) {
    // A randomized mixed batch, valid against the mirrored edge set.
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
        } while (u == v ||
                 edges.contains(std::minmax(u, v)));
        batch.Insert(u, v);
        edges.insert(std::minmax(u, v));
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

    // Quiesce: park the readers, drain in-flight queries, and demand
    // oracle-exact answers for the now-current graph.
    gate.Pause(kReaders);
    engine.Drain();
    ASSERT_EQ(index.NumEdges(), edges.size());
    const Graph current = index.MaterializeGraph();
    const QueryBatch checks =
        MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      EXPECT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
    gate.Resume();
  }

  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  engine.Stop();

  const ServingCounters counters = engine.Counters();
  // Batches apply their *net* effect: an insert later cancelled by a
  // delete in the same batch coalesces away instead of applying twice.
  EXPECT_EQ(counters.updates_applied + index.Stats().updates_coalesced,
            kRounds * kUpdatesPerRound);
  EXPECT_LE(counters.updates_applied, kRounds * kUpdatesPerRound);
  EXPECT_GE(counters.generations_published, static_cast<uint64_t>(kRounds));
  // Every retired generation must eventually be reclaimed or pending;
  // none may leak outside the manager's books.
  EXPECT_EQ(counters.snapshots_reclaimed + counters.snapshots_retired_pending,
            counters.generations_published);
}

TEST(ServingStressTest, ReadersExactUnderRepairChurn) {
  RunStress(/*rebuild_threshold=*/1e18);  // repair-only, overlay grows
}

TEST(ServingStressTest, ReadersExactUnderRebuildChurn) {
  // A tiny threshold forces staleness rebuilds mid-serve: publishes
  // swap whole base indexes, not just overlay deltas.
  RunStress(/*rebuild_threshold=*/0.02);
}

}  // namespace
}  // namespace pspc
