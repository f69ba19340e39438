#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "tools/lint_rules.h"

/// spc_lint: the project-invariant linter. Scans src/, tools/,
/// examples/, bench/ and tests/ (minus the golden corpus) for
/// violations of the repo-specific rules in tools/lint_rules.h
/// (metric-name catalog membership, the raw-mutex ban,
/// memory_order_relaxed and (void)-cast justification comments,
/// hot-path libc bans, include-guard hygiene and the src/ layer DAG).
/// The compiler rejects NO_THREAD_SAFETY_ANALYSIS: the macro is not
/// defined.
///
///   spc_lint [--root <repo-root>]
///
/// Prints one `file:line: [rule] message` diagnostic per violation and
/// exits non-zero if any were found — the CI lint lane is exactly this
/// invocation. Rule semantics are tested by tests/lint_corpus_test.cc
/// against the golden corpus in tests/lint_corpus/.
namespace {

int Run(const std::filesystem::path& root) {
  std::string error;
  const std::vector<spclint::Violation> violations =
      spclint::LintTree(root, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "spc_lint: %s\n", error.c_str());
    return 2;
  }
  for (const spclint::Violation& v : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "spc_lint: %zu violation(s)\n", violations.size());
    return 1;
  }
  std::fprintf(stdout, "spc_lint: clean\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = std::filesystem::current_path();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr, "usage: spc_lint [--root <repo-root>]\n");
      return 2;
    }
  }
  if (!std::filesystem::is_directory(root / "src")) {
    std::fprintf(stderr,
                 "spc_lint: %s does not look like the repo root (no src/)\n",
                 root.string().c_str());
    return 2;
  }
  return Run(root);
}
