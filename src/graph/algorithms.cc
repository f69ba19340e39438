#include "src/graph/algorithms.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace pspc {

std::vector<Distance> BfsDistances(const Graph& graph, VertexId source) {
  PSPC_CHECK(source < graph.NumVertices());
  std::vector<Distance> dist(graph.NumVertices(), kInfDistance);
  std::vector<VertexId> frontier{source};
  dist[source] = 0;
  Distance d = 0;
  std::vector<VertexId> next;
  while (!frontier.empty()) {
    ++d;
    next.clear();
    for (VertexId u : frontier) {
      for (VertexId v : graph.Neighbors(u)) {
        if (dist[v] == kInfDistance) {
          dist[v] = d;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::vector<VertexId> ConnectedComponents(const Graph& graph,
                                          VertexId* num_components) {
  const VertexId n = graph.NumVertices();
  std::vector<VertexId> component(n, kInvalidVertex);
  VertexId next_id = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (component[s] != kInvalidVertex) continue;
    component[s] = next_id;
    stack.assign(1, s);
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (VertexId v : graph.Neighbors(u)) {
        if (component[v] == kInvalidVertex) {
          component[v] = next_id;
          stack.push_back(v);
        }
      }
    }
    ++next_id;
  }
  if (num_components != nullptr) *num_components = next_id;
  return component;
}

Distance Eccentricity(const Graph& graph, VertexId source) {
  const auto dist = BfsDistances(graph, source);
  Distance ecc = 0;
  for (Distance d : dist) {
    if (d != kInfDistance) ecc = std::max(ecc, d);
  }
  return ecc;
}

Distance EstimateDiameter(const Graph& graph, int rounds, uint64_t seed) {
  const VertexId n = graph.NumVertices();
  if (n == 0) return 0;
  Rng rng(seed);
  Distance best = 0;
  VertexId start = static_cast<VertexId>(rng.NextBounded(n));
  // Every sweep from an isolated vertex stays on it: move on, cyclically,
  // to the next vertex that has an edge.
  for (VertexId step = 0; step < n && graph.Degree(start) == 0; ++step) {
    start = start + 1 == n ? 0 : start + 1;
  }
  for (int r = 0; r < rounds; ++r) {
    const auto dist = BfsDistances(graph, start);
    VertexId farthest = start;
    Distance ecc = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (dist[v] != kInfDistance && dist[v] > ecc) {
        ecc = dist[v];
        farthest = v;
      }
    }
    best = std::max(best, ecc);
    start = farthest;
  }
  return best;
}

Distance ExactDiameter(const Graph& graph) {
  Distance best = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    best = std::max(best, Eccentricity(graph, v));
  }
  return best;
}

}  // namespace pspc
