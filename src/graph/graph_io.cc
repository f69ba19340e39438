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

Result<std::vector<std::pair<uint64_t, uint64_t>>> ParseRawEdges(
    std::istream& in) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
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
    edges.emplace_back(u, v);
  }
  return edges;
}

Result<Graph> ParseEdgeStream(std::istream& in) {
  auto raw = ParseRawEdges(in);
  if (!raw.ok()) return raw.status();
  uint64_t max_id = 0;
  for (const auto& [u, v] : raw.value()) {
    max_id = std::max({max_id, u, v});
  }
  if (!raw.value().empty() && max_id >= kInvalidVertex) {
    return Status::OutOfRange("vertex id " + std::to_string(max_id) +
                              " exceeds the 32-bit id space");
  }
  GraphBuilder builder(
      raw.value().empty() ? 0 : static_cast<VertexId>(max_id + 1));
  for (const auto& [u, v] : raw.value()) {
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

}  // namespace

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
