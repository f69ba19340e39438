#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint_rules.h"

/// The spc_lint golden corpus: each deliberately-bad snippet in
/// tests/lint_corpus/ must fail with exactly the expected rule at the
/// expected line, the clean snippets must pass, and the real tree must
/// lint clean (the same invariant the CI lint lane enforces by running
/// the spc_lint binary).
namespace {

namespace fs = std::filesystem;

fs::path SourceRoot() { return fs::path(PSPC_SOURCE_ROOT); }

std::string ReadCorpusFile(const std::string& name) {
  std::string content;
  const fs::path path = SourceRoot() / "tests" / "lint_corpus" / name;
  EXPECT_TRUE(spclint::ReadFile(path, &content)) << path;
  return content;
}

spclint::LintOptions CorpusOptions() {
  spclint::LintOptions options;
  options.metric_catalog = {"serve.queries_total"};
  return options;
}

/// (rule, line) pairs, sorted, for golden comparison.
std::vector<std::pair<std::string, size_t>> Summarize(
    const std::vector<spclint::Violation>& violations) {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(violations.size());
  for (const spclint::Violation& v : violations) {
    out.emplace_back(v.rule, v.line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct CorpusCase {
  const char* corpus_file;  // under tests/lint_corpus/
  const char* lint_as;      // path driving classification
  std::vector<std::pair<std::string, size_t>> expected;
};

class LintCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(LintCorpusTest, FiresExactlyTheExpectedDiagnostics) {
  const CorpusCase& c = GetParam();
  const std::string content = ReadCorpusFile(c.corpus_file);
  ASSERT_FALSE(content.empty()) << c.corpus_file;
  const std::vector<spclint::Violation> violations =
      spclint::LintFile(c.lint_as, content, CorpusOptions());
  std::vector<std::pair<std::string, size_t>> expected = c.expected;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Summarize(violations), expected) << c.corpus_file;
  for (const spclint::Violation& v : violations) {
    EXPECT_EQ(v.file, c.lint_as);
    EXPECT_FALSE(v.message.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, LintCorpusTest,
    ::testing::Values(
        CorpusCase{"metric_literal.cc",
                   "src/common/metric_literal.cc",
                   {{"metric-literal", 4}, {"metric-literal", 5}}},
        CorpusCase{"raw_mutex.cc",
                   "src/common/raw_mutex.cc",
                   {{"raw-mutex", 7}, {"raw-mutex", 10}}},
        CorpusCase{"bare_relaxed.cc",
                   "src/common/bare_relaxed.cc",
                   {{"bare-relaxed", 14}}},
        CorpusCase{"hot_path_calls.cc",
                   "src/serve/hot_path_calls.cc",
                   {{"hot-path-call", 7},
                    {"hot-path-call", 8},
                    {"hot-path-call", 9}}},
        CorpusCase{"bad_guard.h",
                   "src/serve/bad_guard.h",
                   {{"include-guard", 3}}},
        CorpusCase{"void_cast.cc",
                   "src/common/void_cast.cc",
                   {{"void-cast", 7}}},
        CorpusCase{"clean.cc", "src/serve/clean.cc", {}},
        CorpusCase{"clean_header.h", "src/serve/clean_header.h", {}},
        // Layering: common may not include serve; src/rogue and
        // src/analytics have no layer.
        CorpusCase{"layering_util.h",
                   "src/common/util.h",
                   {{"layer-back-edge", 2}}},
        CorpusCase{"layering_thing.h",
                   "src/rogue/thing.h",
                   {{"layer-unknown", 1}}},
        CorpusCase{"layering_engine.h",
                   "src/serve/engine.h",
                   {{"layer-unknown", 3}}},
        CorpusCase{"worklist.h", "src/serve/worklist.h", {}},
        CorpusCase{"worklist.cc", "src/serve/worklist.cc", {}}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.corpus_file;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

TEST(LintRulesTest, HotPathRulesOnlyApplyToServeAndDynamic) {
  // The identical content is fine under src/common/ (not a hot path).
  const std::string content = ReadCorpusFile("hot_path_calls.cc");
  const std::vector<spclint::Violation> violations =
      spclint::LintFile("src/common/hot_path_calls.cc", content,
                        CorpusOptions());
  EXPECT_TRUE(violations.empty());
}

TEST(LintRulesTest, PragmaOnceSatisfiesTheGuardRule) {
  const std::vector<spclint::Violation> violations = spclint::LintFile(
      "src/common/example.h", "#pragma once\nint x;\n", CorpusOptions());
  EXPECT_TRUE(violations.empty());
}

TEST(LintRulesTest, CanonicalGuard) {
  EXPECT_EQ(spclint::CanonicalGuard("src/serve/request_queue.h"),
            "PSPC_SRC_SERVE_REQUEST_QUEUE_H_");
}

TEST(LintRulesTest, ScrubBlanksCommentsAndStrings) {
  const spclint::ScrubbedSource src = spclint::Scrub(
      "int a; // std::mutex in a comment\n"
      "const char* s = \"std::mutex in a string\";\n"
      "std::mutex real;\n");
  ASSERT_EQ(src.code.size(), 4u);  // trailing newline yields an empty line
  EXPECT_EQ(src.code[0].find("mutex"), std::string::npos);
  EXPECT_EQ(src.code[1].find("mutex"), std::string::npos);
  EXPECT_NE(src.code[2].find("std::mutex"), std::string::npos);
  EXPECT_TRUE(src.has_comment[0]);
  EXPECT_FALSE(src.has_comment[1]);
}

TEST(LintRulesTest, StringLiteralsSurviveScrubbing) {
  const spclint::ScrubbedSource src =
      spclint::Scrub("auto* n = \"serve.queries_total\";  // catalog\n");
  const std::vector<std::string> literals =
      spclint::StringLiterals(src.code_with_strings[0]);
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0], "serve.queries_total");
}

TEST(LintRulesTest, MetricCatalogParsesFromTheRealHeader) {
  std::string content;
  ASSERT_TRUE(spclint::ReadFile(SourceRoot() / "src/obs/metric_names.h",
                                &content));
  const std::set<std::string> catalog =
      spclint::ParseMetricCatalog(content);
  EXPECT_GT(catalog.size(), 10u);
  EXPECT_EQ(catalog.count("serve.queries_total"), 1u);
}

/// The whole point: the shipped tree satisfies its own invariants.
TEST(LintCleanTreeTest, RepositoryLintsClean) {
  std::string error;
  const std::vector<spclint::Violation> violations =
      spclint::LintTree(SourceRoot(), &error);
  EXPECT_TRUE(error.empty()) << error;
  for (const spclint::Violation& v : violations) {
    ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message;
  }
}

}  // namespace
