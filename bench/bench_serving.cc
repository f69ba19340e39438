// Mixed read/write serving throughput: the snapshot-publishing
// `ServingEngine` against a snapshot-off baseline that takes one
// global mutex around the whole `DynamicSpcIndex` for every query and
// every update — the design the serving subsystem replaces.
//
// For each read/write ratio (100/0, 95/5, 50/50) and loader-thread
// count, loader threads run a closed query loop while a writer applies
// synthetic closure churn (close a live edge / reopen a closed one),
// self-paced toward the target write share of total operations.
// Because one repair costs thousands of query times, any nonzero write
// share leaves the writer near-saturated; the measurement is then
// exactly the subsystem's reason to exist: how much read throughput
// survives while the index is continuously repairing. The headline
// check is the ISSUE-2 acceptance bar — at 95/5 the engine must
// sustain >= 5x the baseline's query throughput.
//
// After the mixed runs, a **publish-cost phase** drives an insert-heavy
// batch stream through the real publish path (`SnapshotManager` +
// `IndexSnapshot::Capture`) and reports, per publish, how many label
// chunks had to be copied under the persistent chunked overlay versus
// the map-copy baseline (which re-copied the whole overlay — exactly
// `overlaid vertices` — every publish). The p50 copied count must stay
// at the batch delta while the overlay keeps growing; the phase exits
// non-zero if the p50 publish copies more than half the final overlay
// (with enough batches for the comparison to mean anything) — the
// bound the CI smoke asserts.
//
// Usage:
//
//   ./bench_serving [duration_seconds_per_run] [scale_divisor]
//                   [required_95_5_speedup] [--json <path>]
//
// The optional third argument turns the 95/5 target into a hard exit
// code (CI passes 5 at quarter scale, where the regime holds).
// `--json <path>` additionally writes the printed metrics as a
// machine-readable BENCH_*.json summary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/json_writer.h"
#include "src/common/mutex.h"
#include "src/common/percentile.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/closure_churn.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/label/label_merge.h"
#include "src/label/label_merge_simd.h"
#include "src/label/packed_label.h"
#include "src/label/query_engine.h"
#include "src/serve/index_snapshot.h"
#include "src/serve/serving_engine.h"
#include "src/serve/snapshot_manager.h"

namespace {

constexpr size_t kBatch = 64;       // queries per loader iteration
constexpr size_t kHotPairs = 4096;  // repeat-keyed working set
constexpr double kHotShare = 0.9;   // of queries drawn from the hot set

struct RunResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  double seconds = 0.0;
  double batch_p50_ms = 0.0;
  double batch_p99_ms = 0.0;

  double ReadsPerSecond() const {
    return seconds == 0.0 ? 0.0 : static_cast<double>(reads) / seconds;
  }
};

// Drives one mixed run: `loaders` closed-loop reader threads calling
// `run_batch`, plus this thread applying churn through `apply`, paced
// toward `write_share` of total operations. Queries follow the shape
// of serving traffic — heavily repeat-keyed (kHotShare of them draw
// from a kHotPairs working set, the rest are uniform random), the
// regime the generation-tagged result cache exists for.
RunResult RunMixed(
    pspc::VertexId n, double write_share, int loaders, double duration,
    const std::function<void(const pspc::QueryBatch&)>& run_batch,
    const std::function<pspc::Status(const pspc::EdgeUpdate&)>& apply,
    pspc::ClosureChurn* churn) {
  const pspc::QueryBatch hot = pspc::MakeRandomQueries(n, kHotPairs, 0xcafe);
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(loaders));
  std::vector<std::thread> threads;
  for (int i = 0; i < loaders; ++i) {
    auto* out = &latencies[static_cast<size_t>(i)];
    const uint64_t seed = 0xb0b0 + static_cast<uint64_t>(i);
    threads.emplace_back([&, out, seed] {
      pspc::Rng rng(seed);
      pspc::QueryBatch batch(kBatch);
      // relaxed: stop flag and read tally are statistics/poll-only;
      // no payload is published through them.
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& query : batch) {
          if (rng.NextBool(kHotShare)) {
            query = hot[rng.NextBounded(kHotPairs)];
          } else {
            query = {static_cast<pspc::VertexId>(rng.NextBounded(n)),
                     static_cast<pspc::VertexId>(rng.NextBounded(n))};
          }
        }
        pspc::WallTimer timer;
        run_batch(batch);
        out->push_back(timer.ElapsedMillis());
        // relaxed: throughput tally, read approximately by the pacer.
        reads.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }

  pspc::Rng write_rng(0xfeed);
  uint64_t writes = 0;
  pspc::WallTimer wall;
  while (wall.ElapsedSeconds() < duration) {
    const double quota =
        write_share / (1.0 - write_share) *
        // relaxed: pacing estimate; staleness only skews the mix.
        static_cast<double>(reads.load(std::memory_order_relaxed));
    if (write_share == 0.0 || churn->Empty() ||
        static_cast<double>(writes) >= quota) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (apply(churn->Next(write_rng)).ok()) ++writes;
  }
  const double elapsed = wall.ElapsedSeconds();
  // relaxed: join() below is the synchronization point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  RunResult result;
  result.reads = reads.load();
  result.writes = writes;
  result.seconds = elapsed;
  result.batch_p50_ms = pspc::Percentile(all, 0.5);
  result.batch_p99_ms = pspc::Percentile(all, 0.99);
  return result;
}

// Quiesce exactness check: after the run has fully drained, a handful
// of answers must match a fresh BFS on the live graph.
size_t OracleMismatches(
    pspc::DynamicSpcIndex* index,
    const std::function<pspc::SpcResult(pspc::VertexId, pspc::VertexId)>&
        query) {
  const pspc::Graph current = index->MaterializeGraph();
  size_t mismatches = 0;
  for (const auto& [s, t] :
       pspc::MakeRandomQueries(current.NumVertices(), 8, 0x0c1e)) {
    if (query(s, t) != pspc::BfsSpcPair(current, s, t)) ++mismatches;
  }
  return mismatches;
}

struct Row {
  const char* mode;
  double write_share;
  int loaders;
  RunResult result;
  size_t oracle_mismatches;
};

Row RunEngine(const pspc::Graph& graph, const pspc::SpcIndex& index,
              double write_share, int loaders, double duration) {
  pspc::DynamicSpcIndex dynamic(graph, index);  // fresh copy per run
  pspc::ServingOptions options;
  options.num_workers = loaders;
  pspc::ServingEngine engine(&dynamic, options);
  pspc::ClosureChurn churn(graph);
  RunResult result = RunMixed(
      graph.NumVertices(), write_share, loaders, duration,
      [&](const pspc::QueryBatch& batch) { engine.SubmitBatch(batch).get(); },
      [&](const pspc::EdgeUpdate& update) {
        return engine.ApplyUpdate(update);
      },
      &churn);
  engine.Drain();
  const size_t mismatches =
      OracleMismatches(&dynamic, [&](pspc::VertexId s, pspc::VertexId t) {
        return engine.Submit(s, t).get();
      });
  return {"engine", write_share, loaders, result, mismatches};
}

Row RunGlobalLock(const pspc::Graph& graph, const pspc::SpcIndex& index,
                  double write_share, int loaders, double duration) {
  pspc::DynamicSpcIndex dynamic(graph, index);  // fresh copy per run
  // The snapshot-off design: one lock for all.
  pspc::spc::Mutex whole_index{pspc::spc::LockRank::kClient};
  pspc::ClosureChurn churn(graph);
  RunResult result = RunMixed(
      graph.NumVertices(), write_share, loaders, duration,
      [&](const pspc::QueryBatch& batch) {
        for (const auto& [s, t] : batch) {
          pspc::spc::MutexLock lock(whole_index);
          dynamic.Query(s, t);
        }
      },
      [&](const pspc::EdgeUpdate& update) {
        pspc::spc::MutexLock lock(whole_index);
        return dynamic.Apply(update);
      },
      &churn);
  const size_t mismatches =
      OracleMismatches(&dynamic, [&](pspc::VertexId s, pspc::VertexId t) {
        pspc::spc::MutexLock lock(whole_index);
        return dynamic.Query(s, t);
      });
  return {"lock  ", write_share, loaders, result, mismatches};
}

// Insert-heavy publish-cost phase: `batches` atomic batches of
// `batch_size` fresh edges each, one Publish per batch through the
// real retire/reclaim path. Returns false when the p50 publish copies
// more than half the final overlay — publish cost tracking the
// *overlay* instead of the *batch delta* is the regression this
// guards against.
bool RunPublishCostPhase(const pspc::Graph& graph,
                         const pspc::SpcIndex& index, size_t batches,
                         size_t batch_size,
                         pspc::benchjson::Object* json_out) {
  pspc::DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only: the overlay only grows
  pspc::DynamicSpcIndex dynamic(graph, index, options);
  pspc::SnapshotManager manager(pspc::IndexSnapshot::Capture(dynamic));

  const pspc::VertexId n = graph.NumVertices();
  pspc::Rng rng(0xdeed);
  std::vector<double> copied, publish_ms;
  size_t map_copy_cost = 0;  // sum of per-publish whole-overlay copies
  for (size_t b = 0; b < batches; ++b) {
    pspc::EdgeUpdateBatch batch;
    while (batch.Size() < batch_size) {
      const auto u = static_cast<pspc::VertexId>(rng.NextBounded(n));
      const auto v = static_cast<pspc::VertexId>(rng.NextBounded(n));
      if (u == v || dynamic.HasEdge(u, v)) continue;
      batch.Insert(u, v);
    }
    if (!dynamic.ApplyBatch(batch).ok()) {
      std::printf("publish-cost phase: ApplyBatch FAILED\n");
      return false;
    }
    pspc::WallTimer timer;
    manager.Publish(pspc::IndexSnapshot::Capture(dynamic));
    publish_ms.push_back(timer.ElapsedMillis());
    copied.push_back(
        static_cast<double>(manager.LastPublishCopiedVertices()));
    map_copy_cost += dynamic.Overlay().OverlaidVertices();
  }

  const size_t final_overlaid = dynamic.Overlay().OverlaidVertices();
  const double p50_copied = pspc::Percentile(copied, 0.5);
  const double p95_copied = pspc::Percentile(copied, 0.95);
  if (json_out != nullptr) {
    json_out->Add("batches", batches);
    json_out->Add("batch_size", batch_size);
    json_out->Add("copied_p50", p50_copied);
    json_out->Add("copied_p95", p95_copied);
    json_out->Add("publish_p50_ms", pspc::Percentile(publish_ms, 0.5));
    json_out->Add("map_copy_baseline_total", map_copy_cost);
    json_out->Add("chunked_copied_total",
                  manager.TotalPublishCopiedVertices());
    json_out->Add("final_overlaid_vertices", final_overlaid);
  }
  std::printf(
      "\npublish cost, insert-heavy (%zu batches x %zu inserts):\n"
      "  copied vertices/publish: p50 %.0f, p95 %.0f  "
      "(publish p50 %.3f ms)\n"
      "  map-copy baseline would have copied %zu vertices total; the "
      "chunked overlay copied %zu (%.1fx less)\n"
      "  final overlay: %zu vertices\n",
      batches, batch_size, p50_copied, p95_copied,
      pspc::Percentile(publish_ms, 0.5), map_copy_cost,
      manager.TotalPublishCopiedVertices(),
      manager.TotalPublishCopiedVertices() == 0
          ? 0.0
          : static_cast<double>(map_copy_cost) /
                static_cast<double>(manager.TotalPublishCopiedVertices()),
      final_overlaid);

  // Quiesce oracle on the final published generation.
  const pspc::Graph current = dynamic.MaterializeGraph();
  size_t mismatches = 0;
  const auto snapshot = manager.Acquire();
  for (const auto& [s, t] : pspc::MakeRandomQueries(n, 16, 0x0c2e)) {
    if (snapshot->Query(s, t) != pspc::BfsSpcPair(current, s, t)) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::printf("  oracle: %zu mismatches  <-- CORRECTNESS BUG\n",
                mismatches);
    return false;
  }

  // The bound: per-publish cost must track the batch delta, not the
  // accumulated overlay. Enforced only once the overlay is large
  // enough that the distinction exists.
  if (batches >= 16 && final_overlaid >= 64 &&
      2.0 * p50_copied > static_cast<double>(final_overlaid)) {
    std::printf("  p50 publish copied %.0f of %zu overlaid vertices "
                "(NOT O(batch delta)!)\n",
                p50_copied, final_overlaid);
    return false;
  }
  std::printf("  p50 publish copies the batch delta (bound met), "
              "oracle exact\n");
  return true;
}

// Query-path phase: times the `MergeLabelCounts` reference against
// the one production kernel on raw spans and on packed label blocks
// (decode, then merge), and reports the label bytes a query reads in
// each representation. Mismatch counts are exact-gated in CI; the
// kernel ratio (same host) and the byte ratio are gated as speedups.
bool RunQueryPathPhase(const pspc::SpcIndex& index,
                       pspc::benchjson::Object* json_out) {
  const pspc::VertexId n = index.NumVertices();
  const pspc::PackedLabelMap packed =
      pspc::PackedLabelMap::Encode(index.LabelMap());
  const pspc::QueryBatch pairs = pspc::MakeRandomQueries(n, 4096, 0xbead);
  const size_t reps = std::max<size_t>(1, 500'000 / pairs.size());

  size_t raw_bytes = 0, packed_bytes = 0, mismatches = 0;
  std::vector<pspc::SpcResult> reference;
  reference.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    reference.push_back(
        pspc::MergeLabelCounts(index.Labels(s), index.Labels(t)));
    raw_bytes += index.Labels(s).size_bytes() + index.Labels(t).size_bytes();
    packed_bytes += packed.Block(s).SizeBytes() + packed.Block(t).SizeBytes();
  }

  const auto kernel = [&](pspc::VertexId s, pspc::VertexId t) {
    return pspc::MergeLabelCountsBranchFree(index.Labels(s), index.Labels(t));
  };
  const auto from_packed = [&](pspc::VertexId s, pspc::VertexId t) {
    return pspc::MergeLabelSources(
        pspc::LabelSource::Packed(packed.Block(s)),
        pspc::LabelSource::Packed(packed.Block(t)));
  };
  const auto time_merges = [&](auto&& merge) {
    uint64_t checksum = 0;
    pspc::WallTimer timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const auto& [s, t] : pairs) {
        checksum ^= merge(s, t).count;
      }
      // Full compiler barrier so the pure, fully-inlinable merges
      // cannot be hoisted out of the rep loop.
      asm volatile("" : "+r"(checksum) : : "memory");
    }
    const double seconds = timer.ElapsedSeconds();
    return seconds * 1e9 / static_cast<double>(reps * pairs.size()) +
           (checksum == 0xdeadbeef ? 1e-12 : 0.0);
  };
  const double reference_ns =
      time_merges([&](pspc::VertexId s, pspc::VertexId t) {
        return pspc::MergeLabelCounts(index.Labels(s), index.Labels(t));
      });
  const double kernel_ns = time_merges(kernel);
  const double packed_ns = time_merges(from_packed);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    if (kernel(s, t) != reference[i]) ++mismatches;
    if (from_packed(s, t) != reference[i]) ++mismatches;
  }

  const double raw_bpq =
      static_cast<double>(raw_bytes) / static_cast<double>(pairs.size());
  const double packed_bpq =
      static_cast<double>(packed_bytes) / static_cast<double>(pairs.size());
  const char* kernel_name = pspc::MergeKernelName(pspc::ActiveMergeKernel());
  std::printf(
      "\nquery path (%zu pairs, kernel %s):\n"
      "  merge: reference %.0f ns, kernel %.0f ns (%.2fx), packed %.0f ns\n"
      "  label bytes/query: raw %.0f, packed %.0f (%.2fx fewer)\n"
      "  kernel mismatches vs reference: %zu%s\n",
      pairs.size(), kernel_name, reference_ns, kernel_ns,
      reference_ns / kernel_ns, packed_ns, raw_bpq, packed_bpq,
      raw_bpq / packed_bpq, mismatches,
      mismatches == 0 ? "" : "  <-- CORRECTNESS BUG");
  if (json_out != nullptr) {
    json_out->Add("pairs", static_cast<uint64_t>(pairs.size()));
    json_out->Add("merge_kernel", kernel_name);
    json_out->Add("reference_merge_ns", reference_ns);
    json_out->Add("kernel_merge_ns", kernel_ns);
    json_out->Add("packed_merge_ns", packed_ns);
    json_out->Add("kernel_speedup", reference_ns / kernel_ns);
    json_out->Add("label_bytes_per_query_raw", raw_bpq);
    json_out->Add("label_bytes_per_query_packed", packed_bpq);
    json_out->Add("packed_bytes_speedup", raw_bpq / packed_bpq);
    json_out->Add("kernel_mismatches", mismatches);
  }
  return mismatches == 0;
}

// Compaction phase: insert-heavy churn into a repair-only overlay,
// then one `DynamicSpcIndex::Fold()`. Reports overlay width
// before/after, stale entries pruned, and the merge time of the
// repaired pairs before and after the fold (the reference against the
// one kernel); the quiesce oracle and the kernel mismatches are
// exact-gated in CI.
bool RunCompactionPhase(const pspc::Graph& graph, const pspc::SpcIndex& index,
                        pspc::benchjson::Object* json_out) {
  pspc::DynamicOptions options;
  options.rebuild_threshold = 1e18;  // repair-only; the phase folds
  pspc::DynamicSpcIndex dynamic(graph, index, options);

  const pspc::VertexId n = graph.NumVertices();
  pspc::Rng rng(0xc0de);
  for (size_t b = 0; b < 16; ++b) {
    pspc::EdgeUpdateBatch batch;
    while (batch.Size() < 8) {
      const auto u = static_cast<pspc::VertexId>(rng.NextBounded(n));
      const auto v = static_cast<pspc::VertexId>(rng.NextBounded(n));
      if (u == v || dynamic.HasEdge(u, v)) continue;
      batch.Insert(u, v);
    }
    if (!dynamic.ApplyBatch(batch).ok()) {
      std::printf("compaction phase: ApplyBatch FAILED\n");
      return false;
    }
  }

  // Merges over the labels the churn repaired, before and after the
  // fold: what the stale-entry pruning saves each query.
  std::vector<pspc::VertexId> repaired;
  dynamic.Overlay().ForEachOverlaid(
      [&](pspc::VertexId v, const pspc::LabelChunk&) { repaired.push_back(v); });
  pspc::QueryBatch pairs;
  for (size_t i = 0; i < 2048 && !repaired.empty(); ++i) {
    pairs.emplace_back(repaired[rng.NextBounded(repaired.size())],
                       static_cast<pspc::VertexId>(rng.NextBounded(n)));
  }
  uint64_t kernel_mismatches = 0;
  const auto time_merges = [&](auto&& merge) {
    uint64_t checksum = 0;
    pspc::WallTimer timer;
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& [s, t] : pairs) checksum ^= merge(s, t).count;
      asm volatile("" : "+r"(checksum) : : "memory");
    }
    return timer.ElapsedSeconds() * 1e9 /
           static_cast<double>(std::max<size_t>(1, 20 * pairs.size()));
  };
  const auto measure = [&](double* reference_ns, double* kernel_ns) {
    for (const auto& [s, t] : pairs) {
      if (pspc::MergeLabelCountsBranchFree(dynamic.Labels(s),
                                           dynamic.Labels(t)) !=
          pspc::MergeLabelCounts(dynamic.Labels(s), dynamic.Labels(t))) {
        ++kernel_mismatches;
      }
    }
    *reference_ns = time_merges([&](pspc::VertexId s, pspc::VertexId t) {
      return pspc::MergeLabelCounts(dynamic.Labels(s), dynamic.Labels(t));
    });
    *kernel_ns = time_merges([&](pspc::VertexId s, pspc::VertexId t) {
      return pspc::MergeLabelCountsBranchFree(dynamic.Labels(s),
                                              dynamic.Labels(t));
    });
  };
  double reference_before_ns = 0.0, kernel_before_ns = 0.0;
  measure(&reference_before_ns, &kernel_before_ns);

  const size_t overlay_entries_before = dynamic.Overlay().OverlaidEntries();
  pspc::WallTimer fold_timer;
  const uint64_t pruned = dynamic.Fold();
  const double fold_ms = fold_timer.ElapsedMillis();
  const size_t overlay_entries_after = dynamic.Overlay().OverlaidEntries();

  double reference_after_ns = 0.0, kernel_after_ns = 0.0;
  measure(&reference_after_ns, &kernel_after_ns);

  const pspc::Graph current = dynamic.MaterializeGraph();
  size_t mismatches = 0;
  for (const auto& [s, t] : pspc::MakeRandomQueries(n, 16, 0x0c3e)) {
    if (dynamic.Query(s, t) != pspc::BfsSpcPair(current, s, t)) ++mismatches;
  }

  std::printf(
      "\ncompaction (insert-heavy overlay):\n"
      "  fold (%.3f ms): overlay %zu -> %zu entries, %llu stale pruned\n"
      "  repaired-pair merge: reference %.0f -> %.0f ns, kernel %.0f -> "
      "%.0f ns\n"
      "  oracle: %zu mismatches, kernel: %llu mismatches%s\n",
      fold_ms, overlay_entries_before, overlay_entries_after,
      static_cast<unsigned long long>(pruned),
      reference_before_ns, reference_after_ns, kernel_before_ns,
      kernel_after_ns, mismatches,
      static_cast<unsigned long long>(kernel_mismatches),
      mismatches + kernel_mismatches == 0 ? "" : "  <-- CORRECTNESS BUG");
  if (json_out != nullptr) {
    json_out->Add("overlay_entries_before_fold", overlay_entries_before);
    json_out->Add("overlay_entries_after_fold", overlay_entries_after);
    json_out->Add("entries_pruned", pruned);
    json_out->Add("fold_ms", fold_ms);
    json_out->Add("reference_merge_ns_before_fold", reference_before_ns);
    json_out->Add("kernel_merge_ns_before_fold", kernel_before_ns);
    json_out->Add("reference_merge_ns_after_fold", reference_after_ns);
    json_out->Add("kernel_merge_ns_after_fold", kernel_after_ns);
    json_out->Add("kernel_speedup", reference_after_ns / kernel_after_ns);
    json_out->Add("fold_emptied_overlay_met", overlay_entries_after == 0);
    json_out->Add("kernel_mismatches", kernel_mismatches);
    json_out->Add("oracle_mismatches", mismatches);
  }
  return mismatches == 0 && kernel_mismatches == 0 &&
         overlay_entries_after == 0;
}

}  // namespace

int main(int argc, char** argv) {
  double duration = 2.0;
  uint32_t divisor = 1;
  double required_speedup = 0.0;
  std::string json_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json expects an output path\n");
        return 2;
      }
      json_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 0) duration = std::atof(positional[0].c_str());
  if (positional.size() > 1) {
    divisor = static_cast<uint32_t>(std::atoi(positional[1].c_str()));
  }
  if (positional.size() > 2) {
    required_speedup = std::atof(positional[2].c_str());
  }
  if (divisor == 0) divisor = 1;

  // Floor at a size where the graph still has edges to churn.
  const pspc::VertexId n = std::max<pspc::VertexId>(64, 8000 / divisor);
  const pspc::Graph graph = pspc::GenerateBarabasiAlbert(n, 4, 1);
  std::printf("graph: %u vertices, %llu edges; building base index...\n", n,
              static_cast<unsigned long long>(graph.NumEdges()));
  pspc::BuildResult built = pspc::BuildIndex(graph, pspc::BuildOptions{});
  std::printf("base index: %zu entries\n\n", built.index.TotalEntries());

  const double kWriteShares[] = {0.0, 0.05, 0.5};  // 100/0, 95/5, 50/50
  const int kLoaderCounts[] = {2, 4};

  std::vector<Row> rows;
  std::printf("%-7s %9s %8s %14s %10s %10s %7s %7s\n", "mode", "ratio",
              "loaders", "reads/s", "p50 ms", "p99 ms", "writes", "oracle");
  for (const double write_share : kWriteShares) {
    for (const int loaders : kLoaderCounts) {
      for (const bool use_engine : {false, true}) {
        const Row row =
            use_engine
                ? RunEngine(graph, built.index, write_share, loaders, duration)
                : RunGlobalLock(graph, built.index, write_share, loaders,
                                duration);
        std::printf("%-7s %3.0f/%-3.0f %8d %14.0f %10.3f %10.3f %7llu %7s\n",
                    row.mode, 100.0 * (1.0 - write_share), 100.0 * write_share,
                    loaders, row.result.ReadsPerSecond(), row.result.batch_p50_ms,
                    row.result.batch_p99_ms,
                    static_cast<unsigned long long>(row.result.writes),
                    row.oracle_mismatches == 0 ? "exact" : "WRONG");
        rows.push_back(row);
      }
    }
  }

  // Headline: the ISSUE-2 acceptance bar at 95/5, best loader count.
  double best_speedup = 0.0;
  size_t total_mismatches = 0;
  for (const Row& row : rows) total_mismatches += row.oracle_mismatches;
  for (const int loaders : kLoaderCounts) {
    double engine_rate = 0.0, lock_rate = 0.0;
    for (const Row& row : rows) {
      if (row.write_share != 0.05 || row.loaders != loaders) continue;
      if (row.mode[0] == 'e') {
        engine_rate = row.result.ReadsPerSecond();
      } else {
        lock_rate = row.result.ReadsPerSecond();
      }
    }
    if (lock_rate > 0.0) {
      best_speedup = std::max(best_speedup, engine_rate / lock_rate);
    }
  }
  std::printf("\n95/5 read throughput, engine vs whole-index lock: %.1fx %s\n",
              best_speedup,
              best_speedup >= 5.0 ? "(target >=5x met)"
                                  : "(BELOW the 5x target!)");
  std::printf("oracle: %zu mismatches%s\n", total_mismatches,
              total_mismatches == 0 ? "" : "  <-- CORRECTNESS BUG");

  // Publish-cost phase: insert-heavy, enough batches that the overlay
  // dwarfs a single batch's blast radius; always enforced (the bound
  // is scale-independent — it compares the delta to the overlay).
  pspc::benchjson::Object publish_json;
  const bool publish_ok =
      RunPublishCostPhase(graph, built.index, /*batches=*/24,
                          /*batch_size=*/8, &publish_json);

  // The query merge (reference vs the one kernel, raw and packed
  // labels) and the overlay fold.
  pspc::benchjson::Object query_path_json;
  const bool query_path_ok = RunQueryPathPhase(built.index, &query_path_json);
  pspc::benchjson::Object compaction_json;
  const bool compaction_ok =
      RunCompactionPhase(graph, built.index, &compaction_json);

  if (!json_path.empty()) {
    pspc::benchjson::Object root;
    root.Add("bench", "serving");
    root.Add("vertices", static_cast<uint64_t>(n));
    root.Add("edges", static_cast<uint64_t>(graph.NumEdges()));
    root.Add("duration_seconds_per_run", duration);
    pspc::benchjson::Array row_array;
    for (const Row& row : rows) {
      pspc::benchjson::Object r;
      r.Add("mode", row.mode[0] == 'e' ? "engine" : "lock");
      r.Add("write_share", row.write_share);
      r.Add("loaders", row.loaders);
      r.Add("reads_per_second", row.result.ReadsPerSecond());
      r.Add("batch_p50_ms", row.result.batch_p50_ms);
      r.Add("batch_p99_ms", row.result.batch_p99_ms);
      r.Add("writes", row.result.writes);
      r.Add("oracle_mismatches", row.oracle_mismatches);
      row_array.Add(r);
    }
    root.AddRaw("rows", row_array.Serialize());
    root.Add("speedup_95_5_best", best_speedup);
    root.AddRaw("publish_cost", publish_json.Serialize());
    root.Add("publish_bound_met", publish_ok);
    root.AddRaw("query_path", query_path_json.Serialize());
    root.AddRaw("compaction", compaction_json.Serialize());
    root.Add("query_path_exact_met", query_path_ok);
    root.Add("compaction_exact_met", compaction_ok);
    root.Add("oracle_mismatches_total", total_mismatches);
    // The full observability snapshot of the run (every engine above
    // fed the process-global registry) — same schema the serve CLI
    // exports, so BENCH_*.json rows and scraped metrics line up.
    root.AddRaw("metrics", pspc::obs::MetricsRegistry::Global().ToJson());
    if (!pspc::benchjson::WriteFile(json_path, root)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  // The third argument makes the speedup bar enforceable where the
  // configuration warrants it (the CI smoke passes 5); unconditional
  // enforcement would false-fail tiny scales, where repairs are too
  // fast for the lock baseline to collapse.
  if (required_speedup > 0.0 && best_speedup < required_speedup) return 1;
  return total_mismatches == 0 && publish_ok && query_path_ok && compaction_ok
             ? 0
             : 1;
}
