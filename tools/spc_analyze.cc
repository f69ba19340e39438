// spc_analyze: cross-file semantic analysis over the repository.
//
// Where spc_lint checks token-level invariants file by file, spc_analyze
// builds a whole-tree model (classes, annotated members, functions, an
// approximate call graph, the #include graph — see tools/analyze_model.h)
// and checks the cross-file protocols no single translation unit can see:
//
//   lock-cycle / lock-hierarchy / lock-unregistered
//       acquisition-order graph from nested spc::MutexLock scopes and
//       REQUIRES edges; cycles are potential deadlocks; the observed
//       order must match tools/lock_hierarchy.txt
//   pin-escape
//       SnapshotRef and other ACQUIRE-style RAII capabilities must not
//       be stored in members, containers, or lambda captures that
//       outlive the acquiring scope without an explicit Release()
//   layer-back-edge / layer-unknown
//       #include edges must respect the layer DAG in tools/layer_dag.txt
//
// Usage: spc_analyze [--root <dir>] [--json <path>]
// Exit codes: 0 clean, 1 violations found, 2 usage/config error.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "tools/analyze_passes.h"

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: spc_analyze [--root <dir>] [--json <path>]\n");
      return 0;
    } else {
      std::fprintf(stderr, "spc_analyze: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (!std::filesystem::is_directory(root / "src")) {
    std::fprintf(stderr,
                 "spc_analyze: '%s' does not look like the repo root (no "
                 "src/ directory)\n",
                 root.string().c_str());
    return 2;
  }

  std::string error;
  const spcanalyze::AnalyzeResult result =
      spcanalyze::AnalyzeTree(root, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "spc_analyze: %s\n", error.c_str());
    return 2;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "spc_analyze: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    out << spcanalyze::ReportJson(result);
  }

  for (const spclint::Violation& v : result.violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!result.violations.empty()) {
    std::printf("spc_analyze: %zu violation(s)\n", result.violations.size());
    return 1;
  }
  std::printf("spc_analyze: clean (%zu lock-order edges observed)\n",
              result.lock_edges.size());
  return 0;
}
