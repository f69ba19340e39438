#include "src/digraph/digraph_io.h"

#include "src/graph/graph_io.h"

namespace pspc {
namespace {

Result<DiGraph> BuildDiGraph(const Result<EdgeListPairs>& parsed) {
  if (!parsed.ok()) return parsed.status();
  DiGraphBuilder builder(parsed.value().num_vertices);
  for (const auto& [u, v] : parsed.value().edges) {
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

}  // namespace

Result<DiGraph> LoadDirectedEdgeList(const std::string& path) {
  return BuildDiGraph(LoadEdgePairs(path));
}

Result<DiGraph> ParseDirectedEdgeList(const std::string& text) {
  return BuildDiGraph(ParseEdgePairs(text));
}

}  // namespace pspc
