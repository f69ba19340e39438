#ifndef PSPC_SRC_DIGRAPH_DIGRAPH_H_
#define PSPC_SRC_DIGRAPH_DIGRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"

/// Directed simple graph in dual-CSR form (both out- and in-adjacency,
/// each sorted ascending). The paper's §II-A formalizes hub labeling
/// for SPC on directed graphs — each vertex carries an in-label and an
/// out-label; `BuildDirectedPspcIndex` (src/core/) builds that index
/// over this graph.
namespace pspc {

class DiGraph {
 public:
  DiGraph() : out_offsets_(1, 0), in_offsets_(1, 0) {}

  /// Constructs from prebuilt CSR arrays (use DiGraphBuilder).
  DiGraph(std::vector<EdgeId> out_offsets, std::vector<VertexId> out_nbrs,
          std::vector<EdgeId> in_offsets, std::vector<VertexId> in_nbrs);

  VertexId NumVertices() const {
    return static_cast<VertexId>(out_offsets_.size() - 1);
  }

  /// Number of directed edges.
  EdgeId NumEdges() const { return out_neighbors_.size(); }

  VertexId OutDegree(VertexId v) const {
    return static_cast<VertexId>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  VertexId InDegree(VertexId v) const {
    return static_cast<VertexId>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Successors of `v` (targets of edges v -> x), ascending.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_neighbors_.data() + out_offsets_[v],
            out_neighbors_.data() + out_offsets_[v + 1]};
  }

  /// Predecessors of `v` (sources of edges x -> v), ascending.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_neighbors_.data() + in_offsets_[v],
            in_neighbors_.data() + in_offsets_[v + 1]};
  }

  bool HasEdge(VertexId u, VertexId v) const;

  /// Raw CSR arrays of each direction (the builder pulls through them).
  const std::vector<EdgeId>& OutOffsets() const { return out_offsets_; }
  const std::vector<VertexId>& OutNeighborArray() const {
    return out_neighbors_;
  }
  const std::vector<EdgeId>& InOffsets() const { return in_offsets_; }
  const std::vector<VertexId>& InNeighborArray() const {
    return in_neighbors_;
  }

  friend bool operator==(const DiGraph&, const DiGraph&) = default;

 private:
  std::vector<EdgeId> out_offsets_;
  std::vector<VertexId> out_neighbors_;
  std::vector<EdgeId> in_offsets_;
  std::vector<VertexId> in_neighbors_;
};

/// Accumulates directed edges; deduplicates and drops self-loops.
class DiGraphBuilder {
 public:
  explicit DiGraphBuilder(VertexId num_vertices) : n_(num_vertices) {}

  /// Records the directed edge `u -> v`.
  void AddEdge(VertexId u, VertexId v);

  DiGraph Build() const;

 private:
  VertexId n_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// Convenience construction from an explicit directed edge list.
DiGraph MakeDiGraph(VertexId num_vertices,
                    const std::vector<std::pair<VertexId, VertexId>>& edges);

/// The symmetric closure of an undirected graph: each edge in both
/// directions. Directed SPC on it must agree with undirected SPC — a
/// cross-validation hook used by tests.
DiGraph FromUndirected(const Graph& graph);

/// G(n, m) uniform random directed graph, deterministic by seed.
DiGraph GenerateRandomDiGraph(VertexId num_vertices, EdgeId num_edges,
                              uint64_t seed);

/// Directed cycle 0 -> 1 -> ... -> n-1 -> 0.
DiGraph GenerateDiCycle(VertexId num_vertices);

}  // namespace pspc

#endif  // PSPC_SRC_DIGRAPH_DIGRAPH_H_
