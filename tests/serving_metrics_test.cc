// Cross-layer observability: the registry-backed metrics must agree
// with the engine's own ServingCounters / the index's DynamicStats
// (both are fed the identical deltas at the identical sites), the
// lock-free Counters() read path must stay clean under a concurrent
// poller (the TSan job runs this file), and sampled traces must carry
// monotone stage timestamps through the pipeline.
//
// All OpenMP knobs are pinned to one thread — libgomp is not
// TSan-instrumented, and a team of one never spawns — so every thread
// TSan watches is one of ours.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/serve/serving_engine.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

BuildOptions SingleThreadBuild() {
  BuildOptions options;
  options.num_landmarks = 4;
  options.num_threads = 1;
  return options;
}

DynamicOptions RepairOnlyOptions(obs::MetricsRegistry* registry) {
  DynamicOptions options;
  options.rebuild_threshold = 1e18;
  options.rebuild_options = SingleThreadBuild();
  options.num_threads = 1;
  options.metrics = registry;
  return options;
}

std::unique_ptr<DynamicSpcIndex> MakeIndex(const Graph& graph,
                                           obs::MetricsRegistry* registry) {
  return std::make_unique<DynamicSpcIndex>(graph, SingleThreadBuild(),
                                           RepairOnlyOptions(registry));
}

uint64_t CounterValue(obs::MetricsRegistry& registry, const char* name) {
  return registry.GetCounter(name)->Value();
}

// ---------------------------------------------- registry <-> Counters

// A private registry fed by one engine must agree field-for-field with
// the engine's own ServingCounters after quiesce.
TEST(ServingMetricsTest, RegistryAgreesWithServingCounters) {
  const Graph graph = GenerateBarabasiAlbert(80, 3, 17);
  obs::MetricsRegistry registry;
  auto index = MakeIndex(graph, &registry);

  ServingOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  ServingEngine engine(index.get(), options);

  const QueryBatch queries = MakeRandomQueries(80, 64, 3);
  engine.SubmitBatch(queries).get();
  // Re-ask the same batch so the generation-tagged cache hits.
  engine.SubmitBatch(queries).get();

  EdgeUpdateBatch updates;
  updates.Delete(0, graph.Neighbors(0)[0]);
  ASSERT_TRUE(engine.ApplyUpdates(updates).ok());
  engine.SubmitBatch(queries).get();
  engine.Drain();

  const ServingCounters counters = engine.Counters();
  EXPECT_EQ(counters.queries_served, 3u * 64u);
  EXPECT_GT(counters.cache_hits, 0u);
  EXPECT_EQ(counters.updates_applied, 1u);
  EXPECT_EQ(counters.generations_published, 1u);

  EXPECT_EQ(CounterValue(registry, obs::kServeQueriesTotal),
            counters.queries_served);
  EXPECT_EQ(CounterValue(registry, obs::kServeMicroBatchesTotal),
            counters.micro_batches);
  EXPECT_EQ(CounterValue(registry, obs::kServeCacheHitsTotal),
            counters.cache_hits);
  EXPECT_EQ(CounterValue(registry, obs::kServeCacheMissesTotal),
            counters.cache_misses);
  EXPECT_EQ(CounterValue(registry, obs::kServeUpdatesAppliedTotal),
            counters.updates_applied);
  EXPECT_EQ(CounterValue(registry, obs::kServeGenerationsPublishedTotal),
            counters.generations_published);
  EXPECT_EQ(CounterValue(registry, obs::kServeSnapshotsReclaimedTotal),
            counters.snapshots_reclaimed);
  EXPECT_EQ(CounterValue(registry, obs::kServePublishCopiedVerticesTotal),
            counters.publish_copied_vertices_total);
  EXPECT_EQ(
      registry.GetGauge(obs::kServePublishedGeneration)->Value(),
      static_cast<int64_t>(engine.PublishedGeneration()));

  // The latency surfaces must have seen every query.
  EXPECT_EQ(registry.GetHistogram(obs::kServeQueryLatencyUs)->Count(),
            counters.queries_served);
  EXPECT_EQ(registry.GetHistogram(obs::kServeQueueWaitUs)->Count(),
            counters.queries_served);
  EXPECT_EQ(registry.GetHistogram(obs::kServeMicroBatchSize)->Count(),
            counters.micro_batches);
  EXPECT_EQ(registry.GetHistogram(obs::kServePublishUs)->Count(),
            counters.generations_published);
  // Cache-hit/merge split partitions the end-to-end histogram.
  EXPECT_EQ(
      registry.GetHistogram(obs::kServeQueryLatencyCacheHitUs)->Count() +
          registry.GetHistogram(obs::kServeQueryLatencyMergeUs)->Count(),
      counters.queries_served);
}

// Counters() and ToJson() are polled from a dedicated thread while
// loaders and a writer run — the regression test for the old
// mutex-guarded read path (TSan verifies no data race, the final
// assertions verify the poll never tears totals backwards).
TEST(ServingMetricsTest, PollingThreadDuringMixedWorkload) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 19);
  obs::MetricsRegistry registry;
  auto index = MakeIndex(graph, &registry);

  ServingOptions options;
  options.num_workers = 2;
  options.metrics = &registry;
  options.trace_sample_every_n = 4;
  ServingEngine engine(index.get(), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls{0};
  std::thread poller([&] {
    uint64_t last_queries = 0;
    // relaxed: stop/progress flag only; thread join is the sync point.
    while (!stop.load(std::memory_order_relaxed)) {
      const ServingCounters counters = engine.Counters();
      // Monotone under concurrent writers: a sharded read may trail,
      // never rewind.
      EXPECT_GE(counters.queries_served, last_queries);
      last_queries = counters.queries_served;
      const std::string json = engine.Metrics().ToJson();
      EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // The workload starts once the poller is polling: on a loaded machine
  // it can otherwise finish before the poller thread first runs.
  // relaxed: progress flag only.
  while (polls.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  std::thread loader([&] {
    for (int round = 0; round < 20; ++round) {
      engine.SubmitBatch(MakeRandomQueries(60, 16, round)).get();
    }
  });

  // Writer: close and reopen one live edge, a guaranteed-valid pair.
  const VertexId u = 0;
  const VertexId v = graph.Neighbors(0)[0];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        engine.ApplyUpdate({u, v, EdgeUpdateKind::kDelete}).ok());
    ASSERT_TRUE(
        engine.ApplyUpdate({u, v, EdgeUpdateKind::kInsert}).ok());
  }

  loader.join();
  engine.Drain();
  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_GT(polls.load(), 0u);
  const ServingCounters counters = engine.Counters();
  EXPECT_EQ(counters.queries_served, 20u * 16u);
  EXPECT_EQ(counters.updates_applied, 8u);
  EXPECT_EQ(CounterValue(registry, obs::kServeQueriesTotal),
            counters.queries_served);
}

// ------------------------------------------------------ dynamic layer

// The dynamic.* registry mirror is delta-fed from DynamicStats at the
// tail of every public mutation; after any sequence the two must be
// identical.
TEST(DynamicMetricsTest, RegistryMirrorsDynamicStats) {
  const Graph graph = GenerateBarabasiAlbert(70, 3, 23);
  obs::MetricsRegistry registry;
  auto index = MakeIndex(graph, &registry);

  Rng rng(7);
  const auto next_missing_edge = [&] {
    while (true) {
      const auto u = static_cast<VertexId>(rng.NextBounded(70));
      const auto v = static_cast<VertexId>(rng.NextBounded(70));
      if (u != v && !index->HasEdge(u, v)) return std::make_pair(u, v);
    }
  };
  for (size_t i = 0; i < 6; ++i) {
    const auto [u, v] = next_missing_edge();
    ASSERT_TRUE(index->InsertEdge(u, v).ok());
  }
  ASSERT_TRUE(index->DeleteEdge(0, graph.Neighbors(0)[0]).ok());

  // Two fresh insertions so the batch plans non-empty (net size 2:
  // the coalesced path, one plan + one repair sample).
  EdgeUpdateBatch batch;
  const auto [a1, b1] = next_missing_edge();
  batch.Insert(a1, b1);
  auto [a2, b2] = next_missing_edge();
  while (std::minmax(a2, b2) == std::minmax(a1, b1)) {
    std::tie(a2, b2) = next_missing_edge();
  }
  batch.Insert(a2, b2);
  ASSERT_TRUE(index->ApplyBatch(batch).ok());

  const DynamicStats& stats = index->Stats();
  EXPECT_EQ(CounterValue(registry, obs::kDynamicInsertionsAppliedTotal),
            stats.insertions_applied);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicDeletionsAppliedTotal),
            stats.deletions_applied);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicBatchesAppliedTotal),
            stats.batches_applied);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicResumedBfsRunsTotal),
            stats.resumed_bfs_runs);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicFullHubRepairsTotal),
            stats.affected_hubs);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicEntriesInsertedTotal),
            stats.entries_inserted);
  EXPECT_EQ(CounterValue(registry, obs::kDynamicEntriesErasedTotal),
            stats.entries_erased);
  EXPECT_EQ(registry.GetGauge(obs::kDynamicGeneration)->Value(),
            static_cast<int64_t>(index->Generation()));
  EXPECT_EQ(registry.GetGauge(obs::kDynamicBaseEntries)->Value(),
            static_cast<int64_t>(index->BaseIndex().TotalEntries()));
  // One repair-latency sample per mutation (6 inserts + 1 delete + 1
  // batch).
  EXPECT_EQ(registry.GetHistogram(obs::kDynamicRepairUs)->Count(), 8u);
  EXPECT_EQ(registry.GetHistogram(obs::kDynamicPlanUs)->Count(), 1u);
}

// ------------------------------------------------------------- tracing

TEST(ServingMetricsTest, SampledTracesCarryMonotoneTimestamps) {
  const Graph graph = GenerateBarabasiAlbert(50, 2, 29);
  obs::MetricsRegistry registry;
  auto index = MakeIndex(graph, &registry);

  ServingOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  options.trace_sample_every_n = 1;  // trace everything
  options.slow_trace_us = 0.0;       // ...and every trace is "slow"
  options.slow_trace_capacity = 256;
  ServingEngine engine(index.get(), options);

  const QueryBatch queries = MakeRandomQueries(50, 32, 5);
  engine.SubmitBatch(queries).get();
  engine.Drain();

  const obs::TraceCollector& traces = engine.Traces();
  EXPECT_EQ(traces.TracesRecorded(), 32u);
  EXPECT_EQ(traces.SlowTraces(), 32u);
  EXPECT_EQ(CounterValue(registry, obs::kServeTracesSampledTotal), 32u);
  EXPECT_EQ(CounterValue(registry, obs::kServeTracesSlowTotal), 32u);

  for (const obs::QueryTrace& trace : traces.SlowTraceLog()) {
    EXPECT_GT(trace.trace_id, 0u);
    EXPECT_LT(trace.s, 50u);
    EXPECT_LT(trace.t, 50u);
    EXPECT_GT(trace.enqueue_ns, 0);
    EXPECT_GE(trace.dequeue_ns, trace.enqueue_ns);
    EXPECT_GE(trace.merge_done_ns, trace.dequeue_ns);
    EXPECT_GE(trace.reply_ns, trace.merge_done_ns);
    EXPECT_EQ(trace.generation, engine.PublishedGeneration());
  }
}

TEST(ServingMetricsTest, TracingOffByDefaultCostsNothing) {
  const Graph graph = GenerateBarabasiAlbert(40, 2, 31);
  obs::MetricsRegistry registry;
  auto index = MakeIndex(graph, &registry);

  ServingOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  ServingEngine engine(index.get(), options);
  engine.SubmitBatch(MakeRandomQueries(40, 16, 6)).get();
  engine.Drain();

  EXPECT_EQ(engine.Traces().TracesRecorded(), 0u);
  EXPECT_EQ(CounterValue(registry, obs::kServeTracesSampledTotal), 0u);
}

}  // namespace
}  // namespace pspc
