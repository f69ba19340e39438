#include "src/graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/graph/graph_builder.h"

namespace pspc {
namespace {

// `istream >> uint64_t` in the classic locale, over [p, end): skips
// blanks, takes one optional sign and then decimal digits, and leaves
// `p` past them. A `-` negates modulo 2^64, as strtoull does. No digit,
// or a value past 2^64 - 1, fails.
bool ScanId(const char*& p, const char* end, uint64_t& id) {
  // Space, \t, \n, \v, \f and \r: the classic locale's blanks.
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '-' || *p == '+')) ++p;
  const char* const digits = p;
  uint64_t value = 0;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    const auto digit = static_cast<uint64_t>(*p - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (p == digits) return false;
  id = negative ? 0 - value : value;
  return true;
}

Result<Graph> BuildGraph(const Result<EdgeListPairs>& parsed) {
  if (!parsed.ok()) return parsed.status();
  GraphBuilder builder(parsed.value().num_vertices);
  for (const auto& [u, v] : parsed.value().edges) {
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

}  // namespace

Result<EdgeListPairs> ParseEdgePairs(std::string_view text) {
  EdgeListPairs parsed;
  uint64_t max_id = 0;
  size_t line_no = 0;
  while (!text.empty()) {
    const size_t eol = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const char* p = line.data();
    const char* const end = p + line.size();
    uint64_t u = 0, v = 0;
    if (!ScanId(p, end, u) || !ScanId(p, end, v)) {
      return Status::Corruption("bad edge at line " + std::to_string(line_no) +
                                ": '" + std::string(line) + "'");
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

Result<EdgeListPairs> LoadEdgePairs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string text;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof(chunk));
    text.append(chunk, static_cast<size_t>(in.gcount()));
  } while (in);
  // A read that stops short of the end failed (a directory opens, then
  // fails its first read), so it must not pass for an empty file.
  if (!in.eof()) return Status::IOError("read failed for " + path);
  return ParseEdgePairs(text);
}

Result<Graph> LoadEdgeList(const std::string& path) {
  return BuildGraph(LoadEdgePairs(path));
}

Result<Graph> ParseEdgeList(const std::string& text) {
  return BuildGraph(ParseEdgePairs(text));
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
