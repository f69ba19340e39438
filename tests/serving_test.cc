#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/serve/index_snapshot.h"
#include "src/serve/request_queue.h"
#include "src/serve/result_cache.h"
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
  options.num_landmarks = 4;
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

std::unique_ptr<DynamicSpcIndex> MakeIndex(const Graph& graph) {
  return std::make_unique<DynamicSpcIndex>(graph, SingleThreadBuild(),
                                           RepairOnlyOptions());
}

// ------------------------------------------------------------ satellites

TEST(MakeRandomQueriesTest, EmptyUniverseYieldsEmptyBatch) {
  EXPECT_TRUE(MakeRandomQueries(0, 10, 123).empty());
  EXPECT_TRUE(MakeRandomQueries(0, 0, 123).empty());
  EXPECT_EQ(MakeRandomQueries(5, 7, 123).size(), 7u);
}

// --------------------------------------------------------- IndexSnapshot

TEST(IndexSnapshotTest, MatchesLiveIndex) {
  const Graph graph = GenerateBarabasiAlbert(120, 3, 11);
  auto index = MakeIndex(graph);
  const auto snapshot = IndexSnapshot::Capture(*index);

  EXPECT_EQ(snapshot->NumVertices(), index->NumVertices());
  EXPECT_EQ(snapshot->NumEdges(), index->NumEdges());
  EXPECT_EQ(snapshot->Generation(), index->Generation());
  for (const auto& [s, t] : MakeRandomQueries(120, 200, 5)) {
    EXPECT_EQ(snapshot->Query(s, t), index->Query(s, t));
  }
}

TEST(IndexSnapshotTest, IsolatesRetiredGenerations) {
  const Graph graph = GenerateBarabasiAlbert(120, 3, 12);
  auto index = MakeIndex(graph);
  const QueryBatch probes = MakeRandomQueries(120, 200, 6);

  const auto before = IndexSnapshot::Capture(*index);
  std::vector<SpcResult> old_answers;
  for (const auto& [s, t] : probes) old_answers.push_back(before->Query(s, t));

  // Churn the live index; the captured generation must not move.
  Rng rng(99);
  size_t applied = 0;
  while (applied < 10) {
    const auto u = static_cast<VertexId>(rng.NextBounded(120));
    const auto v = static_cast<VertexId>(rng.NextBounded(120));
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
  // 10 random inserts on 120 vertices must move some answers, or the
  // isolation assertion above would be vacuous.
  EXPECT_GT(changed, 0u);
}

TEST(IndexSnapshotTest, SurvivesIndexRebuild) {
  const Graph graph = GenerateBarabasiAlbert(100, 3, 13);
  auto index = MakeIndex(graph);
  const auto snapshot = IndexSnapshot::Capture(*index);
  const SpcResult old_answer = snapshot->Query(3, 77);

  index->Rebuild();  // swaps the shared base out from under the capture
  EXPECT_EQ(snapshot->Query(3, 77), old_answer);
  EXPECT_EQ(IndexSnapshot::Capture(*index)->Query(3, 77),
            index->Query(3, 77));
}

// Publish-cost regression for the persistent chunked overlay: on an
// insert-heavy stream each capture must copy only the vertices
// repaired since the previous capture (the batch delta), never the
// whole accumulated overlay — the O(overlay) map-copy behavior this
// design replaced. Structural sharing is asserted at the pointer
// level: an unchanged vertex's label span must alias the previous
// snapshot's chunk byte-for-byte *and* address-for-address.
TEST(IndexSnapshotTest, InsertHeavyPublishCopiesDeltaNotOverlay) {
  constexpr VertexId kN = 600;
  constexpr int kBatches = 24;
  constexpr size_t kPerBatch = 3;
  const Graph graph = GenerateBarabasiAlbert(kN, 3, 41);
  auto index = MakeIndex(graph);  // repair-only: the overlay only grows

  Rng rng(4141);
  std::vector<std::unique_ptr<const IndexSnapshot>> snaps;
  snaps.push_back(IndexSnapshot::Capture(*index));
  std::vector<size_t> copied, overlaid;
  Graph first_batch_graph;  // graph state snaps[1] was captured at
  for (int b = 0; b < kBatches; ++b) {
    EdgeUpdateBatch batch;
    while (batch.Size() < kPerBatch) {
      const auto u = static_cast<VertexId>(rng.NextBounded(kN));
      const auto v = static_cast<VertexId>(rng.NextBounded(kN));
      if (u == v || index->HasEdge(u, v)) continue;
      batch.Insert(u, v);
    }
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
    snaps.push_back(IndexSnapshot::Capture(*index));
    if (b == 0) first_batch_graph = index->MaterializeGraph();
    copied.push_back(snaps.back()->CopiedVertices());
    overlaid.push_back(snaps.back()->OverlaidVertices());

    // The copied count must be exactly the per-batch delta: the set of
    // vertices whose label chunk no longer aliases the previous
    // snapshot's. Both snapshots are alive here, so a cloned chunk can
    // never coincidentally reuse the old chunk's storage.
    const IndexSnapshot& prev = *snaps[snaps.size() - 2];
    const IndexSnapshot& cur = *snaps.back();
    size_t unshared = 0;
    for (VertexId v = 0; v < kN; ++v) {
      if (cur.OutLabels(v).data() != prev.OutLabels(v).data()) ++unshared;
    }
    EXPECT_EQ(unshared, copied.back()) << "batch " << b;
    EXPECT_LE(copied.back(), overlaid.back());
  }

  // The overlay grew across the stream while the per-publish copy cost
  // stayed at the batch delta: in the second half of the stream every
  // publish copies well under the full overlay (the map-copy baseline
  // cost), and in aggregate the delta captures copy less than half of
  // what per-publish overlay copies would have.
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
  const Graph current = index->MaterializeGraph();
  for (const auto& [s, t] : MakeRandomQueries(kN, 64, 43)) {
    const SpcResult oracle = BfsSpcPair(current, s, t);
    EXPECT_EQ(snaps.back()->Query(s, t), oracle);
    EXPECT_EQ(index->Query(s, t), oracle);
  }

  // Old generations still answer for *their* graph: 23 batches of
  // later repairs mutated chunks the first post-batch snapshot
  // aliases structurally, and none of that may leak into its answers
  // (the write-generation discipline must have cloned first).
  EXPECT_EQ(snaps[1]->Generation() + kBatches - 1,
            snaps.back()->Generation());
  for (const auto& [s, t] : MakeRandomQueries(kN, 64, 47)) {
    EXPECT_EQ(snaps[1]->Query(s, t), BfsSpcPair(first_batch_graph, s, t));
  }
}

// ------------------------------------------------------- SnapshotManager

TEST(SnapshotManagerTest, PublishRetiresAndReclaims) {
  const Graph graph = GenerateBarabasiAlbert(80, 2, 21);
  auto index = MakeIndex(graph);
  SnapshotManager manager(IndexSnapshot::Capture(*index));
  const uint64_t gen0 = manager.PublishedGeneration();

  VertexId u = 0, v = 1;
  while (index->HasEdge(u, v)) ++v;  // first absent edge from vertex 0

  // A held ref keeps the retired generation alive.
  {
    const auto held = manager.Acquire();
    ASSERT_TRUE(index->InsertEdge(u, v).ok());
    manager.Publish(IndexSnapshot::Capture(*index));
    EXPECT_EQ(manager.RetiredCount(), 1u);
    EXPECT_EQ(manager.ReclaimedCount(), 0u);
    EXPECT_EQ(held->Generation(), gen0);  // still readable
    EXPECT_GT(manager.PublishedGeneration(), gen0);
  }

  // Ref released: the next publish drains the retired list.
  ASSERT_TRUE(index->DeleteEdge(u, v).ok());
  manager.Publish(IndexSnapshot::Capture(*index));
  EXPECT_EQ(manager.RetiredCount(), 0u);
  EXPECT_EQ(manager.ReclaimedCount(), 2u);
}

// A held ref keeps only its own generation retired: every later
// generation is freed at the publish that retires it, and the held
// snapshot still answers exactly for the graph it captured.
TEST(SnapshotManagerTest, AHeldRefKeepsOnlyItsOwnGeneration) {
  const Graph graph = GenerateBarabasiAlbert(80, 2, 24);
  auto index = MakeIndex(graph);
  SnapshotManager manager(IndexSnapshot::Capture(*index));
  const auto held = manager.Acquire();

  constexpr size_t kPublishes = 6;
  VertexId u = 0, v = 1;
  for (size_t i = 0; i < kPublishes; ++i) {
    while (index->HasEdge(u, v)) ++v;  // next absent edge from vertex 0
    ASSERT_TRUE(index->InsertEdge(u, v).ok());
    manager.Publish(IndexSnapshot::Capture(*index));
  }
  EXPECT_EQ(manager.RetiredCount(), 1u);
  EXPECT_EQ(manager.ReclaimedCount(), kPublishes - 1);
  for (const auto& [s, t] : MakeRandomQueries(80, 64, 25)) {
    EXPECT_EQ(held->Query(s, t), BfsSpcPair(graph, s, t));
  }
}

TEST(SnapshotManagerTest, AcquireSeesLatestPublish) {
  const Graph graph = GenerateBarabasiAlbert(80, 2, 22);
  auto index = MakeIndex(graph);
  SnapshotManager manager(IndexSnapshot::Capture(*index));
  VertexId u = 0, v = 1;
  while (index->HasEdge(u, v)) ++v;  // first absent edge from vertex 0
  ASSERT_TRUE(index->InsertEdge(u, v).ok());
  manager.Publish(IndexSnapshot::Capture(*index));
  EXPECT_EQ(manager.Acquire()->Generation(), index->Generation());
}

// ----------------------------------------------------------- ResultCache

TEST(ResultCacheTest, HitMissAndSymmetry) {
  ResultCache cache(4, 64);
  SpcResult out;
  EXPECT_FALSE(cache.Lookup(1, 3, 9, &out));
  cache.Insert(1, 3, 9, {2, 5});
  ASSERT_TRUE(cache.Lookup(1, 3, 9, &out));
  EXPECT_EQ(out, (SpcResult{2, 5}));
  // SPC is symmetric; the reversed pair must hit the same entry.
  ASSERT_TRUE(cache.Lookup(1, 9, 3, &out));
  EXPECT_EQ(out, (SpcResult{2, 5}));
  EXPECT_EQ(cache.Hits(), 2u);
  EXPECT_EQ(cache.Misses(), 1u);
}

TEST(ResultCacheTest, GenerationInvalidates) {
  ResultCache cache(1, 64);
  SpcResult out;
  cache.Insert(1, 3, 9, {2, 5});
  EXPECT_FALSE(cache.Lookup(2, 3, 9, &out));  // newer generation: dropped
  // A stale insert from a worker still on generation 1 must not land.
  cache.Insert(1, 3, 9, {2, 5});
  EXPECT_FALSE(cache.Lookup(2, 3, 9, &out));
  // The old generation can no longer hit either (shard moved on).
  EXPECT_FALSE(cache.Lookup(1, 3, 9, &out));
}

// Regression for the stale-micro-batch interleaving: a worker that
// pinned generation G computes an answer while the shard is wholesale-
// dropped for G+1 (by a lookup or an insert from a newer micro-batch);
// its late Insert(G) must be discarded, never stored under the G+1
// tag where Lookup(G+1) would serve a retired graph's answer.
TEST(ResultCacheTest, StaleInsertAfterDropNeverPoisonsNewerGeneration) {
  SpcResult out;
  {
    // Drop triggered by a newer-generation *lookup*.
    ResultCache cache(1, 64);
    EXPECT_FALSE(cache.Lookup(1, 3, 9, &out));  // worker A misses at gen 1
    EXPECT_FALSE(cache.Lookup(2, 3, 9, &out));  // worker B retags to gen 2
    cache.Insert(1, 3, 9, {7, 7});              // A's late stale insert
    EXPECT_FALSE(cache.Lookup(2, 3, 9, &out));  // must not surface at gen 2
    cache.Insert(2, 3, 9, {2, 5});
    ASSERT_TRUE(cache.Lookup(2, 3, 9, &out));
    EXPECT_EQ(out, (SpcResult{2, 5}));  // B's fresh answer, not A's
  }
  {
    // Drop triggered by a newer-generation *insert*, and the stale
    // worker lags several generations behind.
    ResultCache cache(1, 64);
    cache.Insert(1, 3, 9, {1, 1});
    cache.Insert(4, 3, 9, {4, 4});  // retags the shard to gen 4
    cache.Insert(2, 3, 9, {9, 9});  // stale by two generations: dropped
    ASSERT_TRUE(cache.Lookup(4, 3, 9, &out));
    EXPECT_EQ(out, (SpcResult{4, 4}));
    // The stale pair key must not exist under any other entry either.
    EXPECT_FALSE(cache.Lookup(2, 3, 9, &out));
  }
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(4, 0);
  SpcResult out;
  cache.Insert(1, 3, 9, {2, 5});
  EXPECT_FALSE(cache.Lookup(1, 3, 9, &out));
}

// ---------------------------------------------------------- RequestQueue

TEST(RequestQueueTest, AdaptiveBatchSplitsBacklog) {
  RequestQueue queue(64);
  for (int i = 0; i < 10; ++i) {
    ServeRequest request;
    request.s = static_cast<VertexId>(i);
    ASSERT_TRUE(queue.Push(std::move(request)));
  }
  std::vector<ServeRequest> out;
  // 10 queued, 2 consumers -> fair share 5, capped at max_batch 4.
  EXPECT_EQ(queue.PopBatch(&out, 4, 2), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].s, 0u);  // FIFO
  EXPECT_EQ(out[3].s, 3u);
  // 6 left, 2 consumers -> fair share 3 below the cap.
  out.clear();
  EXPECT_EQ(queue.PopBatch(&out, 4, 2), 3u);
  EXPECT_EQ(queue.Size(), 3u);
}

TEST(RequestQueueTest, CloseDrainsThenStops) {
  RequestQueue queue(8);
  ServeRequest request;
  ASSERT_TRUE(queue.Push(std::move(request)));
  queue.Close();
  ServeRequest rejected;
  EXPECT_FALSE(queue.Push(std::move(rejected)));
  std::vector<ServeRequest> out;
  EXPECT_EQ(queue.PopBatch(&out, 4, 1), 1u);  // backlog still served
  EXPECT_EQ(queue.PopBatch(&out, 4, 1), 0u);  // closed and drained
}

// --------------------------------------------------------- ServingEngine

ServingOptions SmallEngineOptions() {
  ServingOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  return options;
}

TEST(ServingEngineTest, ServesExactAnswers) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 31);
  auto index = MakeIndex(graph);
  ServingEngine engine(index.get(), SmallEngineOptions());

  QueryBatch batch;
  for (const auto& [s, t] : testing::AllPairs(60)) batch.emplace_back(s, t);
  const std::vector<SpcResult> results = engine.SubmitBatch(batch).get();
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i],
              BfsSpcPair(graph, batch[i].first, batch[i].second));
  }
  EXPECT_EQ(engine.Submit(7, 7).get(), (SpcResult{0, 1}));
  // A worker tallies its micro-batch after replying; the counters are
  // exact once drained.
  engine.Drain();
  EXPECT_GE(engine.Counters().queries_served, batch.size() + 1);
}

TEST(ServingEngineTest, UpdatesBecomeVisibleAfterPublish) {
  const Graph graph = GeneratePath(40);
  auto index = MakeIndex(graph);
  ServingEngine engine(index.get(), SmallEngineOptions());
  const uint64_t gen0 = engine.PublishedGeneration();

  EXPECT_EQ(engine.Submit(0, 39).get(), (SpcResult{39, 1}));

  // Close the path into a cycle: 0 -> 39 becomes a single hop.
  EdgeUpdateBatch updates;
  updates.Insert(0, 39);
  ASSERT_TRUE(engine.ApplyUpdates(updates).ok());
  EXPECT_GT(engine.PublishedGeneration(), gen0);
  EXPECT_EQ(engine.Submit(0, 39).get(), (SpcResult{1, 1}));

  const ServingCounters counters = engine.Counters();
  EXPECT_EQ(counters.updates_applied, 1u);
  EXPECT_GE(counters.generations_published, 1u);
}

TEST(ServingEngineTest, FailedUpdateDoesNotPublish) {
  const Graph graph = GeneratePath(10);
  auto index = MakeIndex(graph);
  ServingEngine engine(index.get(), SmallEngineOptions());
  const uint64_t gen0 = engine.PublishedGeneration();

  // A redundant insert coalesces to a no-op batch: nothing changes,
  // so nothing publishes.
  EXPECT_TRUE(engine.ApplyUpdate({0, 1, EdgeUpdateKind::kInsert}).ok());
  EXPECT_EQ(engine.PublishedGeneration(), gen0);

  // Batches are atomic: a delete of a missing edge rejects the whole
  // batch up front — the valid insert before it must NOT apply, and
  // no generation publishes.
  EdgeUpdateBatch updates;
  updates.Insert(0, 5);
  updates.Delete(0, 7);  // missing edge: the batch fails up front
  EXPECT_FALSE(engine.ApplyUpdates(updates).ok());
  EXPECT_EQ(engine.PublishedGeneration(), gen0);
  EXPECT_EQ(engine.Submit(0, 5).get(), (SpcResult{5, 1}));

  // The repaired batch applies and publishes exactly one generation.
  EdgeUpdateBatch good;
  good.Insert(0, 5);
  good.Insert(0, 9);
  EXPECT_TRUE(engine.ApplyUpdates(good).ok());
  EXPECT_EQ(engine.PublishedGeneration(), gen0 + 1);
  EXPECT_EQ(engine.Submit(0, 5).get(), (SpcResult{1, 1}));
}

TEST(ServingEngineTest, RepeatedQueriesHitCache) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 32);
  auto index = MakeIndex(graph);
  ServingEngine engine(index.get(), SmallEngineOptions());

  const SpcResult first = engine.Submit(3, 41).get();
  const SpcResult second = engine.Submit(3, 41).get();
  const SpcResult mirrored = engine.Submit(41, 3).get();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, mirrored);
  EXPECT_GE(engine.Counters().cache_hits, 2u);

  // Publishing a generation invalidates: the next repeat misses again.
  const uint64_t misses_before = engine.Counters().cache_misses;
  VertexId u = 0, v = 1;
  while (index->HasEdge(u, v)) ++v;  // first absent edge from vertex 0
  ASSERT_TRUE(engine.ApplyUpdate({u, v, EdgeUpdateKind::kInsert}).ok());
  engine.Submit(3, 41).get();
  EXPECT_GT(engine.Counters().cache_misses, misses_before);
}

TEST(ServingEngineTest, CacheDisabledStillExact) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 33);
  auto index = MakeIndex(graph);
  ServingOptions options = SmallEngineOptions();
  options.cache_capacity_per_shard = 0;
  ServingEngine engine(index.get(), options);
  EXPECT_EQ(engine.Submit(5, 17).get(), BfsSpcPair(graph, 5, 17));
  EXPECT_EQ(engine.Submit(5, 17).get(), BfsSpcPair(graph, 5, 17));
  EXPECT_EQ(engine.Counters().cache_hits, 0u);
}

// A ref from PinSnapshot() owns what it reads: it keeps answering
// exactly for its generation after the engine and the index are gone.
TEST(ServingEngineTest, PinOutlivesEngine) {
  const Graph graph = GenerateBarabasiAlbert(60, 2, 34);
  Graph updated;
  std::shared_ptr<const IndexSnapshot> pin;
  {
    auto index = MakeIndex(graph);
    ServingEngine engine(index.get(), SmallEngineOptions());
    VertexId u = 0, v = 1;
    while (index->HasEdge(u, v)) ++v;  // first absent edge from vertex 0
    ASSERT_TRUE(engine.ApplyUpdate({u, v, EdgeUpdateKind::kInsert}).ok());
    pin = engine.PinSnapshot();
    updated = index->MaterializeGraph();
  }
  for (const auto& [s, t] : MakeRandomQueries(60, 64, 35)) {
    EXPECT_EQ(pin->Query(s, t), BfsSpcPair(updated, s, t));
  }
}

TEST(ServingEngineTest, DrainAndStopAreIdempotent) {
  const Graph graph = GeneratePath(20);
  auto index = MakeIndex(graph);
  ServingEngine engine(index.get(), SmallEngineOptions());
  engine.SubmitBatch(MakeRandomQueries(20, 100, 3)).get();
  engine.Drain();
  engine.Drain();
  engine.Stop();
  engine.Stop();  // destructor will Stop() a third time
}

}  // namespace
}  // namespace pspc
