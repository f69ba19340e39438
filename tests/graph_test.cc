#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/digraph/digraph.h"
#include "src/digraph/digraph_io.h"
#include "src/graph/graph.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_io.h"

namespace pspc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------ Graph --

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphTest, TriangleBasics) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
}

TEST(GraphTest, NeighborsAreSortedAscending) {
  const Graph g = MakeGraph(5, {{4, 0}, {4, 2}, {4, 1}, {4, 3}});
  const auto nbrs = g.Neighbors(4);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.MaxDegree(), 4u);
}

TEST(GraphTest, IsolatedVerticesHaveNoNeighbors) {
  const Graph g = MakeGraph(4, {{0, 1}});
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphTest, EqualityComparesStructure) {
  const Graph a = MakeGraph(3, {{0, 1}, {1, 2}});
  const Graph b = MakeGraph(3, {{1, 2}, {0, 1}});
  const Graph c = MakeGraph(3, {{0, 1}, {0, 2}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ----------------------------------------------------- GraphBuilder --

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g1 = b.Build();
  b.AddEdge(1, 2);
  const Graph g2 = b.Build();
  EXPECT_EQ(g1.NumEdges(), 1u);
  EXPECT_EQ(g2.NumEdges(), 2u);
}

TEST(GraphBuilderTest, RecordsCountPreDedup) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  EXPECT_EQ(b.NumEdgeRecords(), 2u);
}

TEST(GraphBuilderDeathTest, RejectsOutOfRangeVertex) {
  GraphBuilder b(2);
  EXPECT_DEATH(b.AddEdge(0, 2), "outside");
}

// -------------------------------------------------------- Text I/O --

TEST(GraphIoTest, ParseEdgeListBasic) {
  const auto r = ParseEdgeList("# comment\n0 1\n1 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().NumVertices(), 3u);
  EXPECT_EQ(r.value().NumEdges(), 2u);
  const auto d = ParseDirectedEdgeList("# comment\n0 1\n1 2\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().NumVertices(), 3u);
  EXPECT_EQ(d.value().NumEdges(), 2u);
}

TEST(GraphIoTest, ParsePreservesNumericIds) {
  // Default loader keeps ids: gaps become isolated vertices.
  const auto r = ParseEdgeList("0 1\n1 5\n");
  ASSERT_TRUE(r.ok());
  const Graph& g = r.value();
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_TRUE(g.HasEdge(1, 5));
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(GraphIoTest, ParseSymmetrizesDirectedDuplicates) {
  const auto r = ParseEdgeList("0 1\n1 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().NumEdges(), 1u);
}

TEST(GraphIoTest, ParseToleratesPercentComments) {
  const auto r = ParseEdgeList("% konect header\n0 1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().NumEdges(), 1u);
  const auto d = ParseDirectedEdgeList("% konect header\n0 1\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().NumEdges(), 1u);
}

TEST(GraphIoTest, ParseRejectsGarbageLine) {
  const auto r = ParseEdgeList("0 1\nnot an edge\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  const auto d = ParseDirectedEdgeList("0 1\nnot an edge\n");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), Status::Code::kCorruption);
}

TEST(GraphIoTest, LoadMissingFileFails) {
  const auto r = LoadEdgeList("/nonexistent/never/graph.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
  const auto d = LoadDirectedEdgeList("/nonexistent/never/graph.txt");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), Status::Code::kIOError);
}

TEST(GraphIoTest, BothLoadersReportTheSameErrors) {
  const std::string garbage = "0 1\nnot an edge\n";
  const std::string expected = "Corruption: bad edge at line 2: 'not an edge'";
  EXPECT_EQ(ParseEdgeList(garbage).status().ToString(), expected);
  EXPECT_EQ(ParseDirectedEdgeList(garbage).status().ToString(), expected);
  const std::string missing = "/nonexistent/never/graph.txt";
  EXPECT_EQ(LoadEdgeList(missing).status().ToString(),
            "IOError: cannot open " + missing);
  EXPECT_EQ(LoadDirectedEdgeList(missing).status().ToString(),
            "IOError: cannot open " + missing);
}

// A directory opens as a stream, but its first read fails. That must
// not pass for an empty file, which still loads as the empty graph.
TEST(GraphIoTest, BothLoadersRejectADirectory) {
  const std::string dir = ::testing::TempDir();
  const std::string expected = "IOError: read failed for " + dir;
  EXPECT_EQ(LoadEdgeList(dir).status().ToString(), expected);
  EXPECT_EQ(LoadDirectedEdgeList(dir).status().ToString(), expected);

  const std::string empty = TempPath("empty.txt");
  std::ofstream(empty, std::ios::binary).flush();
  const auto r = LoadEdgeList(empty);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NumVertices(), 0u);
  const auto d = LoadDirectedEdgeList(empty);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().NumVertices(), 0u);
  std::remove(empty.c_str());
}

TEST(GraphIoTest, ParseDirectedKeepsReverseEdgesDistinct) {
  const auto d = ParseDirectedEdgeList("0 1\n1 0\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().NumEdges(), 2u);
  EXPECT_TRUE(d.value().HasEdge(0, 1));
  EXPECT_TRUE(d.value().HasEdge(1, 0));
}

TEST(GraphIoTest, BothLoadersRejectIdsPast32Bits) {
  // 4294967295 is kInvalidVertex itself, the first id that cannot be
  // a vertex.
  const std::string text = "0 4294967295\n";
  const std::string expected =
      "OutOfRange: vertex id 4294967295 exceeds the 32-bit id space";
  const auto r = ParseEdgeList(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(r.status().ToString(), expected);
  const auto d = ParseDirectedEdgeList(text);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(d.status().ToString(), expected);
}

// Edge-list texts and what both loaders make of them. The id dialect
// is `istream >> uint64_t` in the classic locale: blanks are space, \t,
// \v, \f and \r; one optional sign, where `-` negates modulo 2^64;
// decimal digits, with overflow rejected; anything after the second id
// ignored; a comment only at column 0.
struct AcceptedText {
  std::string text;
  VertexId n = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

struct RejectedText {
  std::string text;
  std::string error;  // the exact Status::ToString()
};

TEST(GraphIoTest, BothLoadersKeepTheIdDialect) {
  const AcceptedText accepted[] = {
      {"+1 2\n", 3, {{1, 2}}},
      {"1+2\n", 3, {{1, 2}}},
      {"1 2x\n", 3, {{1, 2}}},
      {"1 2 7\n", 3, {{1, 2}}},
      {"1\t2\r\n", 3, {{1, 2}}},
      {"\v1 2\n", 3, {{1, 2}}},
      {"1\f2\n", 3, {{1, 2}}},
      {"01 002\n", 3, {{1, 2}}},
      {"-0 1\n", 2, {{0, 1}}},
      {"-18446744073709551615 2\n", 3, {{1, 2}}},
      {"\n\n0 1\n", 2, {{0, 1}}},
      {"1 2", 3, {{1, 2}}},
      {"", 0, {}},
  };
  for (const AcceptedText& c : accepted) {
    SCOPED_TRACE("text '" + c.text + "'");
    const auto r = ParseEdgeList(c.text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), MakeGraph(c.n, c.edges));
    const auto d = ParseDirectedEdgeList(c.text);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d.value(), MakeDiGraph(c.n, c.edges));
  }

  const std::string bad = "Corruption: bad edge at line ";
  const std::string past = " exceeds the 32-bit id space";
  const RejectedText rejected[] = {
      {"-1 2\n", "OutOfRange: vertex id 18446744073709551615" + past},
      {"1 -2\n", "OutOfRange: vertex id 18446744073709551614" + past},
      {"1-2\n", "OutOfRange: vertex id 18446744073709551614" + past},
      {"18446744073709551615 2\n",
       "OutOfRange: vertex id 18446744073709551615" + past},
      {"0 4294967295\n", "OutOfRange: vertex id 4294967295" + past},
      {"1 99999999999999999999\n", bad + "1: '1 99999999999999999999'"},
      {"18446744073709551616 2\n", bad + "1: '18446744073709551616 2'"},
      {"-18446744073709551616 2\n", bad + "1: '-18446744073709551616 2'"},
      {"+-1 2\n", bad + "1: '+-1 2'"},
      {"- 1 2\n", bad + "1: '- 1 2'"},
      {"1x 2\n", bad + "1: '1x 2'"},
      {"1,2\n", bad + "1: '1,2'"},
      {"1.5 2\n", bad + "1: '1.5 2'"},
      {"1\n2\n", bad + "1: '1'"},
      {" \n", bad + "1: ' '"},
      {"\r\n", bad + "1: '\r'"},
      {" # c\n", bad + "1: ' # c'"},
      {"0 1\n# c\n\r\n", bad + "3: '\r'"},
      // Every line is read before the id-space check.
      {"4294967295 0\nx\n", bad + "2: 'x'"},
  };
  for (const RejectedText& c : rejected) {
    SCOPED_TRACE("text '" + c.text + "'");
    EXPECT_EQ(ParseEdgeList(c.text).status().ToString(), c.error);
    EXPECT_EQ(ParseDirectedEdgeList(c.text).status().ToString(), c.error);
  }
}

// The dialect's reference: getline per line, then `>> u >> v` on an
// istringstream of it, with ParseEdgePairs' messages.
Result<EdgeListPairs> IstreamEdgePairs(const std::string& text) {
  std::istringstream in(text);
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

TEST(GraphIoTest, ParseEdgePairsMatchesIstreamOnRandomTexts) {
  const std::string atoms[] = {
      "0", "1", "7", "00", "42", " ", "\t", "\r", "\n", "\v", "\f", "+", "-",
      "#", "%", "x", ".", ",", std::string(1, '\0'), "4294967295",
      "18446744073709551615", "18446744073709551616", "1844674407370955161",
      "99999999999999999999", "1 2\n"};
  Rng rng(24);
  for (int c = 0; c < 20000; ++c) {
    std::string text;
    for (uint64_t i = rng.NextBounded(12); i > 0; --i) {
      text += atoms[rng.NextBounded(std::size(atoms))];
    }
    const auto want = IstreamEdgePairs(text);
    const auto got = ParseEdgePairs(text);
    ASSERT_EQ(got.status().ToString(), want.status().ToString())
        << "text '" << text << "'";
    if (want.ok()) {
      EXPECT_EQ(got.value().num_vertices, want.value().num_vertices);
      ASSERT_EQ(got.value().edges, want.value().edges)
          << "text '" << text << "'";
    }
  }
}

TEST(GraphIoTest, LoadReadsCrlfWithoutFinalNewline) {
  const std::string path = TempPath("crlf.txt");
  std::ofstream(path, std::ios::binary) << "# crlf\r\n0 1\r\n1 2\r\n2 3";
  const auto r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}));
  const auto d = LoadDirectedEdgeList(path);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value(), MakeDiGraph(4, {{0, 1}, {1, 2}, {2, 3}}));
  std::remove(path.c_str());
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  const Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  const auto r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), g);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pspc
