#include "src/digraph/digraph_io.h"

#include <fstream>
#include <sstream>

#include "src/graph/graph_io.h"

namespace pspc {
namespace {

Result<DiGraph> ParseDirectedStream(std::istream& in) {
  auto parsed = ParseEdgePairs(in);
  if (!parsed.ok()) return parsed.status();
  DiGraphBuilder builder(parsed.value().num_vertices);
  for (const auto& [u, v] : parsed.value().edges) {
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

}  // namespace

Result<DiGraph> LoadDirectedEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ParseDirectedStream(in);
}

Result<DiGraph> ParseDirectedEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseDirectedStream(in);
}

}  // namespace pspc
