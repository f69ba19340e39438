#ifndef PSPC_SRC_GRAPH_GENERATORS_H_
#define PSPC_SRC_GRAPH_GENERATORS_H_

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

/// Synthetic graph generators.
///
/// The paper evaluates on 10 public SNAP/KONECT/LAW graphs that are not
/// redistributable inside this repository, so each dataset is replaced
/// by a seeded generator from the matching family (`AllDatasets()`):
/// Barabási–Albert for social networks, R-MAT for web graphs,
/// Watts–Strogatz for geo-social small worlds, a perturbed grid for
/// road networks. All generators are deterministic given a seed.
namespace pspc {

/// Erdős–Rényi G(n, m): `num_edges` distinct uniform edges.
Graph GenerateErdosRenyi(VertexId num_vertices, EdgeId num_edges,
                         uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `edges_per_vertex` existing vertices chosen proportionally to degree
/// (classic repeated-endpoint sampling). Produces the heavy-tailed
/// degree skew typical of social networks.
Graph GenerateBarabasiAlbert(VertexId num_vertices,
                             VertexId edges_per_vertex, uint64_t seed);

/// Barabási–Albert followed by one triangle-closure pass: with
/// probability `closure_prob` each wedge centered on a new vertex is
/// closed, raising clustering toward co-authorship-network levels.
Graph GenerateClusteredBa(VertexId num_vertices, VertexId edges_per_vertex,
                          double closure_prob, uint64_t seed);

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors
/// per side, each edge rewired with probability `rewire_prob`.
Graph GenerateWattsStrogatz(VertexId num_vertices, VertexId k,
                            double rewire_prob, uint64_t seed);

/// R-MAT recursive matrix generator (a, b, c quadrant probabilities;
/// d = 1 - a - b - c). Skewed power-law graphs typical of web crawls.
/// `scale` is log2 of the vertex count.
Graph GenerateRmat(int scale, EdgeId num_edges, double a, double b, double c,
                   uint64_t seed);

/// Road-network analogue: `rows x cols` grid where each lattice edge is
/// kept with probability `keep_prob` and a sprinkle of diagonal
/// shortcuts is added; guaranteed-degree >= 1 is NOT enforced (isolated
/// vertices model unreachable parcels and exercise the disconnected
/// query path). Low degree, large diameter, near-planar.
Graph GenerateRoadGrid(VertexId rows, VertexId cols, double keep_prob,
                       double diagonal_prob, uint64_t seed);

/// Deterministic classics used heavily by tests.
Graph GeneratePath(VertexId num_vertices);
Graph GenerateCycle(VertexId num_vertices);
Graph GenerateComplete(VertexId num_vertices);
Graph GenerateStar(VertexId num_leaves);
/// Balanced tree with given branching factor.
Graph GenerateTree(VertexId num_vertices, VertexId branching);
/// `levels`-layer "diamond ladder": ends s and t around `levels - 2`
/// layers of `width` vertices, consecutive layers fully connected.
/// SPC(s, t) is width^(levels-2) — a count-explosion stress test.
Graph GenerateDiamondLadder(VertexId levels, VertexId width);

/// The 10-vertex example graph of the paper's Figure 2 (edge list
/// reconstructed from the Table II labels; validated in tests against
/// every label entry of Table II). Vertex `v_i` of the paper is id
/// `i - 1` here.
Graph PaperFigure2Graph();

}  // namespace pspc

#endif  // PSPC_SRC_GRAPH_GENERATORS_H_
