#ifndef PSPC_SRC_GRAPH_GRAPH_IO_H_
#define PSPC_SRC_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/graph/graph.h"

/// Edge-list text persistence for undirected graphs.
///
/// The format is the SNAP edge-list dialect the paper's datasets ship
/// in: one `u v` pair per line, `#`-prefixed comment lines, directed
/// duplicates tolerated (the loader symmetrizes). Vertex ids are kept
/// as they are, so they must fit the 32-bit id space.
namespace pspc {

/// Loads an edge-list text file, preserving numeric vertex ids
/// (`n = max id + 1`; gaps become isolated vertices). Round-trips
/// exactly with SaveEdgeList.
Result<Graph> LoadEdgeList(const std::string& path);

/// Parses edge-list text from a string (same dialect as LoadEdgeList).
Result<Graph> ParseEdgeList(const std::string& text);

/// The `u v` pairs of edge-list text in line order, each id checked to
/// fit the 32-bit id space, and the vertex count they imply (`max id +
/// 1`; 0 without edges). Both edge directions' loaders read through it.
struct EdgeListPairs {
  VertexId num_vertices = 0;
  std::vector<std::pair<uint64_t, uint64_t>> edges;
};

/// Reads edge-list text (the dialect above) to its pairs. Ids are read
/// as `istream >> uint64_t` reads them. A line that is not a comment
/// and does not start with two ids is Corruption; an id past the
/// 32-bit id space is OutOfRange.
Result<EdgeListPairs> ParseEdgePairs(std::string_view text);

/// ParseEdgePairs over the whole file at `path`, read into one buffer
/// that is freed before this returns. IOError if it cannot be opened
/// or a read fails before the end of the file (as on a directory).
Result<EdgeListPairs> LoadEdgePairs(const std::string& path);

/// Writes `graph` as an edge-list text file (each undirected edge once,
/// smaller endpoint first).
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace pspc

#endif  // PSPC_SRC_GRAPH_GRAPH_IO_H_
