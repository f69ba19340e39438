#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze_passes.h"

/// The spc_analyze golden corpus: each mini-tree under
/// tests/analyze_corpus/ carries its own tools/lock_hierarchy.txt +
/// tools/layer_dag.txt and must produce exactly the expected
/// (file, rule, line) diagnostics — and the real tree must analyze
/// clean (the same invariant the CI spc_analyze lane enforces by
/// running the binary).
namespace {

namespace fs = std::filesystem;

fs::path SourceRoot() { return fs::path(PSPC_SOURCE_ROOT); }

fs::path CorpusRoot(const std::string& name) {
  return SourceRoot() / "tests" / "analyze_corpus" / name;
}

using Finding = std::tuple<std::string, std::string, size_t>;

/// (file, rule, line) triples, sorted, for golden comparison.
std::vector<Finding> Summarize(
    const std::vector<spclint::Violation>& violations) {
  std::vector<Finding> out;
  out.reserve(violations.size());
  for (const spclint::Violation& v : violations) {
    out.emplace_back(v.file, v.rule, v.line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct AnalyzeCase {
  const char* corpus_dir;  // under tests/analyze_corpus/
  std::vector<Finding> expected;
};

class AnalyzeCorpusTest : public ::testing::TestWithParam<AnalyzeCase> {};

TEST_P(AnalyzeCorpusTest, FiresExactlyTheExpectedDiagnostics) {
  const AnalyzeCase& c = GetParam();
  std::string error;
  const spcanalyze::AnalyzeResult result =
      spcanalyze::AnalyzeTree(CorpusRoot(c.corpus_dir), &error);
  ASSERT_TRUE(error.empty()) << error;
  std::vector<Finding> expected = c.expected;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Summarize(result.violations), expected) << c.corpus_dir;
  for (const spclint::Violation& v : result.violations) {
    EXPECT_FALSE(v.message.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, AnalyzeCorpusTest,
    ::testing::Values(
        // The acceptance case: a lock-order inversion between the
        // SnapshotManager and EpochManager mutexes — Publish holds
        // mu_ and (transitively) takes overflow_mu_, Enter holds
        // overflow_mu_ and (transitively) takes mu_.
        AnalyzeCase{"lock_cycle",
                    {{"src/serve/epoch_manager.cc", "lock-cycle", 7},
                     {"src/serve/epoch_manager.cc", "lock-hierarchy", 7},
                     {"src/serve/snapshot_manager.cc", "lock-cycle", 8}}},
        AnalyzeCase{"lock_self",
                    {{"src/core/worker.cc", "lock-cycle", 7},
                     {"src/core/worker.cc", "lock-cycle", 13}}},
        AnalyzeCase{"pin_escape",
                    {{"src/serve/pin_cache.h", "pin-escape", 11},
                     {"src/serve/pin_cache.h", "pin-escape", 12},
                     {"src/serve/pin_use.cc", "pin-escape", 6},
                     {"src/serve/pin_use.cc", "pin-escape", 8}}},
        AnalyzeCase{"layering",
                    {{"src/common/util.h", "layer-back-edge", 2},
                     {"src/rogue/thing.h", "layer-unknown", 1},
                     {"src/serve/engine.h", "layer-unknown", 3}}},
        AnalyzeCase{"lock_unregistered",
                    {{"src/serve/cachelet.h", "lock-unregistered", 9},
                     {"src/serve/cachelet.h", "lock-unregistered", 18}}},
        AnalyzeCase{"clean", {}}),
    [](const ::testing::TestParamInfo<AnalyzeCase>& info) {
      return std::string(info.param.corpus_dir);
    });

TEST(AnalyzeModelTest, ParsesAnnotationsAndMembers) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/serve/widget.h",
       "class Widget {\n"
       " public:\n"
       "  void Tick() REQUIRES(mu_);\n"
       "  void Poke() EXCLUDES(mu_);\n"
       "\n"
       " private:\n"
       "  spc::Mutex mu_;\n"
       "  int count_ GUARDED_BY(mu_) = 0;\n"
       "};\n"}};
  const spcanalyze::Model model = spcanalyze::BuildModel(sources);
  ASSERT_EQ(model.classes_by_name.count("Widget"), 1u);
  const spcanalyze::ClassModel& cls = *model.classes_by_name.at("Widget");
  ASSERT_EQ(cls.members.size(), 2u);
  EXPECT_TRUE(cls.members[0].is_mutex);
  EXPECT_EQ(cls.members[1].name, "count_");
  EXPECT_EQ(cls.members[1].guarded_by, "mu_");
  bool saw_requires = false;
  auto [lo, hi] = model.functions_by_name.equal_range("Tick");
  for (auto it = lo; it != hi; ++it) {
    if (!it->second->requires_args.empty()) {
      EXPECT_EQ(it->second->requires_args[0], "mu_");
      saw_requires = true;
    }
  }
  EXPECT_TRUE(saw_requires);
}

TEST(AnalyzeConfigTest, ParsesLockHierarchyAndLayerDag) {
  const std::vector<std::string> locks = spcanalyze::ParseLockHierarchy(
      "# comment\n"
      "A::mu_\n"
      "\n"
      "  B::mu_   # trailing comment\n");
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_EQ(locks[0], "A::mu_");
  EXPECT_EQ(locks[1], "B::mu_");

  const std::vector<std::vector<std::string>> layers =
      spcanalyze::ParseLayerDag(
          "# comment\n"
          "layer src/common\n"
          "layer src/graph src/label\n");
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[1].size(), 2u);
  EXPECT_EQ(layers[1][1], "src/label");
}

TEST(AnalyzeReportTest, JsonEscapesAndListsEdges) {
  spcanalyze::AnalyzeResult result;
  result.violations.push_back({"a.cc", 3, "pin-escape", "say \"hi\""});
  result.lock_edges.push_back({"A::mu_", "B::mu_", "a.cc", 2});
  const std::string json = spcanalyze::ReportJson(result);
  EXPECT_NE(json.find("\"rule\":\"pin-escape\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"A::mu_\""), std::string::npos);
}

/// The whole point: the shipped tree satisfies its own cross-file
/// protocols (and the observed lock graph is non-degenerate — the
/// writer path really does nest the update-trace lock).
TEST(AnalyzeCleanTreeTest, RepositoryAnalyzesClean) {
  std::string error;
  const spcanalyze::AnalyzeResult result =
      spcanalyze::AnalyzeTree(SourceRoot(), &error);
  EXPECT_TRUE(error.empty()) << error;
  for (const spclint::Violation& v : result.violations) {
    ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message;
  }
  bool saw_writer_edge = false;
  for (const spcanalyze::LockEdge& e : result.lock_edges) {
    if (e.from == "ServingEngine::writer_mu_") saw_writer_edge = true;
  }
  EXPECT_TRUE(saw_writer_edge);
}

}  // namespace
