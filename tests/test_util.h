#ifndef PSPC_TESTS_TEST_UTIL_H_
#define PSPC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/baseline/bfs_spc.h"
#include "src/common/types.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/graph.h"
#include "src/label/spc_index.h"

/// Shared helpers for the PSPC test suite.
namespace pspc::testing {

/// Exhaustive shortest-path counting by DFS path enumeration — the
/// independent oracle used to validate the BFS oracle itself. Only for
/// tiny graphs (exponential).
inline void EnumeratePaths(const Graph& g, VertexId current, VertexId target,
                           uint32_t budget, std::vector<bool>& on_path,
                           Count& found) {
  if (current == target) {
    ++found;
    return;
  }
  if (budget == 0) return;
  on_path[current] = true;
  for (VertexId nxt : g.Neighbors(current)) {
    if (!on_path[nxt]) {
      EnumeratePaths(g, nxt, target, budget - 1, on_path, found);
    }
  }
  on_path[current] = false;
}

/// (distance, count) by brute-force enumeration of simple paths of the
/// exact shortest length.
inline SpcResult BruteForceSpc(const Graph& g, VertexId s, VertexId t) {
  if (s == t) return {0, 1};
  const SpcResult bfs = BfsSpcPair(g, s, t);  // distance from BFS only
  if (bfs.distance == kInfSpcDistance) return {kInfSpcDistance, 0};
  std::vector<bool> on_path(g.NumVertices(), false);
  Count found = 0;
  EnumeratePaths(g, s, t, bfs.distance, on_path, found);
  return {bfs.distance, found};
}

/// All (s, t) pairs of a small graph, s < t.
inline std::vector<std::pair<VertexId, VertexId>> AllPairs(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = s + 1; t < n; ++t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// 64-bit FNV-1a over every vertex's out and in label entries (list
/// length, then hub rank, distance and count of each entry), in vertex
/// order: any label byte a repair writes moves it.
template <class Index>
uint64_t LabelHash(const Index& index) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t value, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    for (const auto labels : {index.OutLabels(v), index.InLabels(v)}) {
      mix(labels.size(), sizeof(uint64_t));
      for (const LabelEntry& e : labels) {
        mix(e.hub_rank, sizeof e.hub_rank);
        mix(e.dist, sizeof e.dist);
        mix(e.count, sizeof e.count);
      }
    }
  }
  return hash;
}

/// The repair work an update stream cost a dynamic index, and the
/// labels it left. Printed as its own initializer, so a recorded value
/// pastes straight into a pin.
struct RepairPin {
  size_t resumed_bfs_runs = 0;
  size_t affected_hubs = 0;
  size_t subtract_repairs = 0;
  size_t entries_inserted = 0;
  size_t entries_renewed = 0;
  size_t entries_erased = 0;
  uint64_t label_hash = 0;

  friend bool operator==(const RepairPin&, const RepairPin&) = default;
  friend std::ostream& operator<<(std::ostream& os, const RepairPin& p) {
    return os << "{" << p.resumed_bfs_runs << ", " << p.affected_hubs << ", "
              << p.subtract_repairs << ", " << p.entries_inserted << ", "
              << p.entries_renewed << ", " << p.entries_erased << ", 0x"
              << std::hex << p.label_hash << std::dec << "ull}";
  }
};

template <class Index>
RepairPin PinOf(const Index& index) {
  const auto& s = index.Stats();
  return {s.resumed_bfs_runs, s.affected_hubs,   s.subtract_repairs,
          s.entries_inserted, s.entries_renewed, s.entries_erased,
          LabelHash(index)};
}

/// Applies `stream` to one fresh `Index` over (`graph`, `built`) update
/// by update and to another through `ApplyBatch` in batches of
/// `batch_size`; returns their pins, update by update first.
template <class Index, class GraphT, class Options>
std::array<RepairPin, 2> RunRepairStream(const GraphT& graph,
                                         const SpcIndex& built,
                                         const Options& options,
                                         const EdgeUpdateBatch& stream,
                                         size_t batch_size) {
  Index sequential(graph, built, options);
  for (const EdgeUpdate& up : stream) {
    EXPECT_TRUE(sequential.Apply(up).ok());
  }
  Index batched(graph, built, options);
  const std::vector<EdgeUpdate>& updates = stream.Updates();
  for (size_t i = 0; i < updates.size(); i += batch_size) {
    EdgeUpdateBatch batch;
    for (size_t j = i; j < std::min(updates.size(), i + batch_size); ++j) {
      batch.Add(updates[j]);
    }
    EXPECT_TRUE(batched.ApplyBatch(batch).ok());
  }
  return {PinOf(sequential), PinOf(batched)};
}

}  // namespace pspc::testing

#endif  // PSPC_TESTS_TEST_UTIL_H_
