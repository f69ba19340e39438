// Quickstart: build an SPC index on the paper's Figure-2 graph and ask
// it questions. Demonstrates the three core steps — graph construction,
// index construction (PSPC, parallel), and querying — plus persistence.
// Exits 1 if the built or the reloaded index gets Example 1 wrong.
//
//   ./quickstart

#include <cstdio>

#include "src/core/builder_facade.h"
#include "src/graph/generators.h"
#include "src/label/spc_index.h"

int main() {
  // 1. A graph. PaperFigure2Graph() is the worked example of the PSPC
  //    paper; any pspc::Graph built via pspc::GraphBuilder works.
  const pspc::Graph graph = pspc::PaperFigure2Graph();
  std::printf("graph: %u vertices, %llu edges\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  // 2. An index. BuildIndex picks the vertex order and runs the
  //    parallel PSPC construction (BuildOptions selects HP-SPC, the
  //    ordering scheme, thread count, landmarks, ...).
  pspc::BuildOptions options;
  options.algorithm = pspc::Algorithm::kPspc;
  options.ordering = pspc::OrderingScheme::kDegree;
  const pspc::BuildResult result = pspc::BuildIndex(graph, options);
  std::printf("index: %zu label entries, %.1f per vertex, built in %.3fs\n",
              result.index.TotalEntries(), result.index.AverageLabelSize(),
              result.stats.TotalSeconds());

  // 3. Queries: distance and the exact number of shortest paths.
  //    Vertex v_i of the paper is id i-1 here; this is the paper's
  //    Example 1, SPC(v10, v7) = (3, 4).
  const pspc::SpcResult spc = result.index.Query(9, 6);
  std::printf("SPC(v10, v7): distance %u, %llu shortest paths\n",
              spc.distance, static_cast<unsigned long long>(spc.count));

  for (const auto& [s, t] : {std::pair<pspc::VertexId, pspc::VertexId>{0, 8},
                             {1, 7},
                             {4, 5}}) {
    const pspc::SpcResult r = result.index.Query(s, t);
    std::printf("SPC(v%u, v%u): distance %u, count %llu\n", s + 1, t + 1,
                r.distance, static_cast<unsigned long long>(r.count));
  }

  // 4. Persistence: the index round-trips through a binary file.
  const char* path = "/tmp/pspc_quickstart.idx";
  if (const pspc::Status st = result.index.Save(path); !st.ok()) {
    std::printf("save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const auto loaded = pspc::SpcIndex::Load(path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const pspc::SpcResult again = loaded.value().Query(9, 6);
  std::printf("round-trip: reloaded index answers SPC(v10, v7) = "
              "(%u, %llu)\n",
              again.distance, static_cast<unsigned long long>(again.count));
  const bool ok = spc == pspc::SpcResult{3, 4} && again == spc;
  std::printf("Example 1: %s\n", ok ? "OK" : "MISMATCH, expected (3, 4)");
  return ok ? 0 : 1;
}
