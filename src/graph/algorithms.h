#ifndef PSPC_SRC_GRAPH_ALGORITHMS_H_
#define PSPC_SRC_GRAPH_ALGORITHMS_H_

#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"

/// Classic graph algorithms used as substrates: BFS distance maps feed
/// the landmark filter (paper §III-H); connected components and the
/// diameter estimate describe a graph (`spc_cli stats`), and the exact
/// diameter bounds the PSPC distance-iteration count in tests (paper
/// Theorem 3: D iterations).
namespace pspc {

/// Single-source BFS distances; unreachable vertices get kInfDistance.
std::vector<Distance> BfsDistances(const Graph& graph, VertexId source);

/// Connected components; returns per-vertex component id (0-based,
/// ordered by smallest contained vertex) and the component count via
/// `num_components`.
std::vector<VertexId> ConnectedComponents(const Graph& graph,
                                          VertexId* num_components);

/// Exact eccentricity of `source` (max finite BFS distance).
Distance Eccentricity(const Graph& graph, VertexId source);

/// Lower bound on the diameter via `rounds` of the double-sweep
/// heuristic (exact on trees; a tight lower bound in practice). The
/// random start skips isolated vertices.
Distance EstimateDiameter(const Graph& graph, int rounds, uint64_t seed);

/// Largest eccentricity over all components via all-source BFS —
/// O(n * m); test-scale graphs only.
Distance ExactDiameter(const Graph& graph);

}  // namespace pspc

#endif  // PSPC_SRC_GRAPH_ALGORITHMS_H_
