// Worked example: serving shortest-path counts while the graph churns.
//
// A static 2-hop index answers queries in microseconds but goes stale
// the moment an edge changes. This example builds a `DynamicSpcIndex`
// over a synthetic social network, streams edge insertions and
// deletions through it, and shows that (a) every answer tracks the
// live graph exactly (cross-checked against an online BFS; a mismatch
// makes it exit 1), and (b) repairing labels is an order of magnitude
// cheaper than rebuilding, with the staleness policy folding the
// accumulated overlay back into a clean base index when it grows past
// the configured threshold.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"

namespace {

void PrintQuery(const pspc::DynamicSpcIndex& index, pspc::VertexId s,
                pspc::VertexId t) {
  const pspc::SpcResult r = index.Query(s, t);
  if (r.distance == pspc::kInfSpcDistance) {
    std::printf("  SPC(%u, %u) = unreachable\n", s, t);
  } else {
    std::printf("  SPC(%u, %u) = distance %u with %llu shortest paths\n", s,
                t, r.distance, static_cast<unsigned long long>(r.count));
  }
}

}  // namespace

int main() {
  // A 2,000-vertex preferential-attachment graph stands in for a small
  // social network (the family of the `FB` analogue in AllDatasets()).
  const pspc::Graph graph = pspc::GenerateBarabasiAlbert(2000, 3, 42);
  std::printf("graph: %u vertices, %llu edges\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  pspc::WallTimer build_timer;
  pspc::DynamicOptions options;
  options.rebuild_threshold = 0.35;  // rebuild at 35% overlay growth
  pspc::DynamicSpcIndex index(graph, pspc::BuildOptions{}, options);
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("initial build: %.3fs, %zu label entries\n\n", build_seconds,
              index.BaseIndex().TotalEntries());

  std::printf("before any update:\n");
  PrintQuery(index, 17, 1234);

  // --- single-edge insertion -------------------------------------------
  pspc::WallTimer update_timer;
  if (const pspc::Status st = index.InsertEdge(17, 1234); !st.ok()) {
    std::printf("insert skipped: %s\n", st.ToString().c_str());
  }
  std::printf("\ninserted edge {17, 1234} in %.3f ms:\n",
              update_timer.ElapsedMillis());
  PrintQuery(index, 17, 1234);

  // --- single-edge deletion --------------------------------------------
  const pspc::VertexId hub_neighbor = graph.Neighbors(0)[0];
  update_timer.Reset();
  if (const pspc::Status st = index.DeleteEdge(0, hub_neighbor); !st.ok()) {
    std::printf("delete skipped: %s\n", st.ToString().c_str());
  }
  std::printf("\ndeleted edge {0, %u} in %.3f ms:\n", hub_neighbor,
              update_timer.ElapsedMillis());
  PrintQuery(index, 0, hub_neighbor);

  // --- a churn stream with online verification -------------------------
  std::printf("\nstreaming 200 random updates...\n");
  pspc::Rng rng(7);
  std::vector<std::pair<pspc::VertexId, pspc::VertexId>> edges;
  for (pspc::VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const pspc::VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  size_t applied = 0, verified = 0, mismatched = 0;
  update_timer.Reset();
  while (applied < 200) {
    // Half the churn deletes an existing edge, half inserts a new one.
    pspc::Status st;
    if (rng.NextBool(0.5)) {
      const size_t i = rng.NextBounded(edges.size());
      st = index.DeleteEdge(edges[i].first, edges[i].second);
      if (st.ok()) {
        edges[i] = edges.back();
        edges.pop_back();
      }
    } else {
      const auto u = static_cast<pspc::VertexId>(rng.NextBounded(2000));
      const auto v = static_cast<pspc::VertexId>(rng.NextBounded(2000));
      if (u == v || index.HasEdge(u, v)) continue;
      st = index.InsertEdge(u, v);
      if (st.ok()) edges.push_back({std::min(u, v), std::max(u, v)});
    }
    if (!st.ok()) continue;
    ++applied;
    if (applied % 40 == 0) {
      // Spot-check against the online BFS oracle on the live graph.
      const pspc::Graph current = index.MaterializeGraph();
      const auto s = static_cast<pspc::VertexId>(rng.NextBounded(2000));
      const auto t = static_cast<pspc::VertexId>(rng.NextBounded(2000));
      const pspc::SpcResult expected = pspc::BfsSpcPair(current, s, t);
      const pspc::SpcResult got = index.Query(s, t);
      std::printf("  after %zu updates: SPC(%u,%u) index=(%u,%llu) "
                  "bfs=(%u,%llu) %s | staleness %.4f\n",
                  applied, s, t, got.distance,
                  static_cast<unsigned long long>(got.count),
                  expected.distance,
                  static_cast<unsigned long long>(expected.count),
                  got == expected ? "OK" : "MISMATCH", index.StalenessRatio());
      ++verified;
      mismatched += got != expected;
    }
  }
  std::printf("%zu updates in %.3fs; %zu oracle spot-checks\n\n", applied,
              update_timer.ElapsedSeconds(), verified);

  std::printf("%s\n", index.Stats().ToString().c_str());
  std::printf("\namortized repair: %.3f ms/update vs %.3fs initial build\n",
              index.Stats().repair_seconds * 1e3 /
                  static_cast<double>(applied + 2),
              build_seconds);
  return mismatched == 0 ? 0 : 1;
}
