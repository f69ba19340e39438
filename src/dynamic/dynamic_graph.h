#ifndef PSPC_SRC_DYNAMIC_DYNAMIC_GRAPH_H_
#define PSPC_SRC_DYNAMIC_DYNAMIC_GRAPH_H_

#include <algorithm>
#include <array>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/digraph/digraph.h"
#include "src/graph/graph.h"

/// Mutable adjacency view over an immutable CSR graph of either edge
/// direction: `DynamicGraph<Graph>` (undirected) or
/// `DynamicGraph<DiGraph>` (directed).
///
/// The base CSR stays untouched; per-vertex deltas record edges added
/// and removed since the base was materialized. An edge `u -> v` is
/// recorded under `u` in an out-delta map and under `v` in an in-delta
/// map, so the repair kernels can expand either way. Undirected, the
/// in map *is* the out map: `{u, v}` records both orientations in one
/// map, and out- and in-neighbors coincide. Only vertices touched by
/// updates pay any overhead — untouched vertices iterate straight over
/// the base CSR spans, which keeps BFS-heavy repair passes close to
/// static-graph speed between rebuilds. `Materialize()` folds the
/// deltas into a fresh CSR when the owning index decides to rebuild.
namespace pspc {

template <class GraphT>
class DynamicGraph {
 public:
  static constexpr bool kDirected = std::is_same_v<GraphT, DiGraph>;

  /// `base` must outlive the view (the owning DynamicIndex keeps both
  /// and rebases after rebuilds).
  explicit DynamicGraph(const GraphT* base)
      : base_(base), num_edges_(base->NumEdges()) {}

  /// Swaps in a new base and drops all deltas.
  void Rebase(const GraphT* base) {
    base_ = base;
    for (DeltaMap& delta : deltas_) delta.clear();
    num_edges_ = base->NumEdges();
  }

  VertexId NumVertices() const { return base_->NumVertices(); }

  /// Number of edges (directed edges when directed).
  EdgeId NumEdges() const { return num_edges_; }

  /// True iff `u -> v` (undirected: `{u, v}`) is present.
  bool HasEdge(VertexId u, VertexId v) const;

  /// InvalidArgument for self-loops or endpoints outside `[0, n)` (the
  /// vertex universe is fixed; HasEdge on such input would be UB).
  Status ValidateEndpoints(VertexId u, VertexId v) const;

  /// Adds the edge `u -> v` (undirected: `{u, v}`; directed, the
  /// reverse edge is independent). InvalidArgument on self-loops,
  /// out-of-range endpoints, or an edge that already exists.
  Status AddEdge(VertexId u, VertexId v);

  /// Removes the edge `u -> v` (undirected: `{u, v}`). NotFound if
  /// absent; InvalidArgument on self-loops or out-of-range endpoints.
  Status RemoveEdge(VertexId u, VertexId v);

  /// Invokes `fn(w)` for every current successor `w` of `v` (targets
  /// of edges v -> w; undirected, every neighbor). Order is base-CSR
  /// order followed by added edges; repair BFS results do not depend
  /// on it.
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    ForEachDelta(deltas_.front(), BaseOut(v), v, fn);
  }

  /// Invokes `fn(w)` for every current predecessor `w` of `v` (sources
  /// of edges w -> v; undirected, every neighbor).
  template <typename Fn>
  void ForEachInNeighbor(VertexId v, Fn&& fn) const {
    ForEachDelta(deltas_.back(), BaseIn(v), v, fn);
  }

  /// CSR snapshot of the current graph (for rebuilds and oracles).
  GraphT Materialize() const;

 private:
  struct VertexDelta {
    std::vector<VertexId> added;    // sorted
    std::vector<VertexId> removed;  // sorted; always subset of base edges
  };
  using DeltaMap = std::unordered_map<VertexId, VertexDelta>;

  std::span<const VertexId> BaseOut(VertexId v) const {
    if constexpr (kDirected) {
      return base_->OutNeighbors(v);
    } else {
      return base_->Neighbors(v);
    }
  }
  std::span<const VertexId> BaseIn(VertexId v) const {
    if constexpr (kDirected) {
      return base_->InNeighbors(v);
    } else {
      return base_->Neighbors(v);
    }
  }

  template <typename Fn>
  static void ForEachDelta(const DeltaMap& delta,
                           std::span<const VertexId> base_nbrs, VertexId v,
                           Fn&& fn) {
    const auto it = delta.find(v);
    if (it == delta.end()) {
      for (const VertexId w : base_nbrs) fn(w);
      return;
    }
    const VertexDelta& d = it->second;
    for (const VertexId w : base_nbrs) {
      if (!std::binary_search(d.removed.begin(), d.removed.end(), w)) fn(w);
    }
    for (const VertexId w : d.added) fn(w);
  }

  static void ApplyAdd(DeltaMap* delta, VertexId key, VertexId value);
  static void ApplyRemove(DeltaMap* delta, VertexId key, VertexId value);

  const GraphT* base_;
  // front(): out-deltas (key: source, values: targets); back(): in-deltas
  // (key: target, values: sources). Undirected, one map is both.
  std::array<DeltaMap, kDirected ? 2 : 1> deltas_;
  EdgeId num_edges_ = 0;
};

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_DYNAMIC_GRAPH_H_
