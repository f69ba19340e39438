#include "src/graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/graph/graph_builder.h"

namespace pspc {
namespace {

Result<Graph> ParseEdgeStream(std::istream& in) {
  auto parsed = ParseEdgePairs(in);
  if (!parsed.ok()) return parsed.status();
  GraphBuilder builder(parsed.value().num_vertices);
  for (const auto& [u, v] : parsed.value().edges) {
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

}  // namespace

Result<EdgeListPairs> ParseEdgePairs(std::istream& in) {
  EdgeListPairs parsed;
  uint64_t max_id = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) {
      return Status::Corruption("bad edge at line " + std::to_string(line_no) +
                                ": '" + line + "'");
    }
    max_id = std::max({max_id, u, v});
    parsed.edges.emplace_back(u, v);
  }
  if (!parsed.edges.empty()) {
    if (max_id >= kInvalidVertex) {
      return Status::OutOfRange("vertex id " + std::to_string(max_id) +
                                " exceeds the 32-bit id space");
    }
    parsed.num_vertices = static_cast<VertexId>(max_id + 1);
  }
  return parsed;
}

Result<Graph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ParseEdgeStream(in);
}

Result<Graph> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseEdgeStream(in);
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# pspc edge list: " << graph.NumVertices() << " vertices, "
      << graph.NumEdges() << " edges\n";
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace pspc
