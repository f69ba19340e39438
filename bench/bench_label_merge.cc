// Microbenchmark for the query merge: the one production kernel
// (`MergeLabelCountsBranchFree`) against the `MergeLabelCounts`
// reference on raw `LabelEntry` spans, plus the kernel over packed
// label blocks (decode, then merge) and the bytes each representation
// holds per merge.
//
// Every timed configuration is also checked for bit-identity against
// the reference on every sampled pair — a kernel that is fast but
// wrong exits non-zero, and the `--json` summary carries the mismatch
// counts so tools/bench_compare gates them exactly in CI, together
// with `kernel_speedup`, a same-host ratio.
//
// Self-contained (WallTimer-based); no google-benchmark dependency:
//
//   ./bench_label_merge [num_vertices] [num_pairs] [--json <path>]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/core/builder_facade.h"
#include "src/graph/generators.h"
#include "src/label/label_merge.h"
#include "src/label/label_merge_simd.h"
#include "src/label/packed_label.h"

namespace {

using pspc::LabelSource;
using pspc::SpcResult;
using pspc::VertexId;

struct Timing {
  double ns_per_merge = 0.0;
  uint64_t mismatches = 0;
  uint64_t checksum = 0;  // defeats dead-code elimination
};

uint64_t Mix(const SpcResult& r) {
  return (static_cast<uint64_t>(r.distance) << 32) ^ r.count;
}

/// Times `merge(s, t)` over every pair, `reps` times, and counts
/// result mismatches against the reference once per pair.
template <typename MergeFn>
Timing TimePairs(const std::vector<std::pair<VertexId, VertexId>>& pairs,
                 const std::vector<SpcResult>& reference, size_t reps,
                 MergeFn&& merge) {
  Timing timing;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (merge(pairs[i].first, pairs[i].second) != reference[i]) {
      ++timing.mismatches;
    }
  }
  pspc::WallTimer timer;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const auto& [s, t] : pairs) {
      timing.checksum ^= Mix(merge(s, t));
    }
    // Full compiler barrier: merges are pure and fully inlinable, so
    // without it the compiler may hoist them out of the rep loop and
    // time ~0 ns.
    asm volatile("" : "+r"(timing.checksum) : : "memory");
  }
  const double seconds = timer.ElapsedSeconds();
  timing.ns_per_merge =
      seconds * 1e9 / static_cast<double>(reps * pairs.size());
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  VertexId n = 4000;
  size_t num_pairs = 4096;
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
  if (positional.size() > 0) {
    n = static_cast<VertexId>(std::atoi(positional[0].c_str()));
  }
  if (positional.size() > 1) {
    num_pairs = static_cast<size_t>(std::atoi(positional[1].c_str()));
  }
  if (n < 16) n = 16;
  if (num_pairs == 0) num_pairs = 1;

  const pspc::Graph graph = pspc::GenerateBarabasiAlbert(n, 4, 1);
  std::printf("graph: %u vertices, %llu edges; building index...\n", n,
              static_cast<unsigned long long>(graph.NumEdges()));
  const pspc::SpcIndex index =
      pspc::BuildIndex(graph, pspc::BuildOptions{}).index;
  const pspc::PackedLabelMap packed =
      pspc::PackedLabelMap::Encode(index.LabelMap());

  // Uniform random pairs: the merge mix a cache-miss query stream
  // produces (hot repeated pairs are absorbed by the result cache
  // upstream of this kernel).
  pspc::Rng rng(0x5eed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.NextBounded(n)),
                       static_cast<VertexId>(rng.NextBounded(n)));
  }
  std::vector<SpcResult> reference;
  reference.reserve(num_pairs);
  size_t raw_bytes = 0, packed_bytes = 0;
  for (const auto& [s, t] : pairs) {
    reference.push_back(pspc::MergeLabelCounts(index.Labels(s), index.Labels(t)));
    raw_bytes += index.Labels(s).size_bytes() + index.Labels(t).size_bytes();
    packed_bytes += packed.Block(s).SizeBytes() + packed.Block(t).SizeBytes();
  }
  const double raw_bytes_per_merge =
      static_cast<double>(raw_bytes) / static_cast<double>(num_pairs);
  const double packed_bytes_per_merge =
      static_cast<double>(packed_bytes) / static_cast<double>(num_pairs);
  const size_t reps =
      std::max<size_t>(1, 2'000'000 / std::max<size_t>(1, num_pairs));

  const Timing ref =
      TimePairs(pairs, reference, reps, [&](VertexId s, VertexId t) {
        return pspc::MergeLabelCounts(index.Labels(s), index.Labels(t));
      });
  const Timing kernel =
      TimePairs(pairs, reference, reps, [&](VertexId s, VertexId t) {
        return pspc::MergeLabelCountsBranchFree(index.Labels(s),
                                                index.Labels(t));
      });
  const Timing from_packed =
      TimePairs(pairs, reference, reps, [&](VertexId s, VertexId t) {
        return pspc::MergeLabelSources(LabelSource::Packed(packed.Block(s)),
                                       LabelSource::Packed(packed.Block(t)));
      });
  const double kernel_speedup = ref.ns_per_merge / kernel.ns_per_merge;
  const char* kernel_name = pspc::MergeKernelName(pspc::ActiveMergeKernel());

  std::printf(
      "\n%zu pairs x %zu reps, raw %.0f B/merge, packed %.0f B/merge "
      "(%.2fx fewer bytes)\n\n",
      num_pairs, reps, raw_bytes_per_merge, packed_bytes_per_merge,
      raw_bytes_per_merge / packed_bytes_per_merge);
  std::printf("%-28s %12s %10s %10s\n", "merge", "ns", "speedup", "oracle");
  const auto print_row = [&](const char* name, const Timing& timing) {
    std::printf("%-28s %12.1f %9.2fx %10s\n", name, timing.ns_per_merge,
                ref.ns_per_merge / timing.ns_per_merge,
                timing.mismatches == 0 ? "exact" : "WRONG");
  };
  print_row("reference, raw", ref);
  print_row((std::string(kernel_name) + ", raw").c_str(), kernel);
  print_row((std::string(kernel_name) + ", packed (decoded)").c_str(),
            from_packed);

  if (!json_path.empty()) {
    pspc::benchjson::Object root;
    root.Add("bench", "label_merge");
    root.Add("vertices", static_cast<uint64_t>(n));
    root.Add("pairs", static_cast<uint64_t>(num_pairs));
    root.Add("reps", static_cast<uint64_t>(reps));
    root.Add("merge_kernel", kernel_name);
    root.Add("raw_bytes_per_merge", raw_bytes_per_merge);
    root.Add("packed_bytes_per_merge", packed_bytes_per_merge);
    // "speedup" keys are gated (higher-better) by tools/bench_compare
    // even in --machine-independent mode: the byte ratio is
    // machine-independent, the kernel ratio is a same-host ratio.
    root.Add("packed_bytes_speedup",
             raw_bytes_per_merge / packed_bytes_per_merge);
    root.Add("kernel_speedup", kernel_speedup);
    root.Add("reference_ns", ref.ns_per_merge);
    root.Add("kernel_ns", kernel.ns_per_merge);
    root.Add("packed_ns", from_packed.ns_per_merge);
    root.Add("kernel_mismatches", kernel.mismatches);
    root.Add("packed_mismatches", from_packed.mismatches);
    if (!pspc::benchjson::WriteFile(json_path, root)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return kernel.mismatches + from_packed.mismatches == 0 ? 0 : 1;
}
