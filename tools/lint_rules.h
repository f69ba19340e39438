#ifndef PSPC_TOOLS_LINT_RULES_H_
#define PSPC_TOOLS_LINT_RULES_H_

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

/// spc_lint's rule engine: project-specific source invariants the
/// compiler cannot check. Shared between the `spc_lint` CLI and the
/// corpus test suite (tests/lint_corpus_test.cc) so the tests exercise
/// exactly the shipping rules. Dependency-free by design (std only) —
/// the CI lint lane builds it in seconds with no library to link.
///
/// Rules (ids are stable; diagnostics print `file:line: [id] msg`):
///   metric-literal    every "serve."/"dynamic." string literal in the
///                     scanned tree must appear in the
///                     src/obs/metric_names.h catalog (the static
///                     complement of the runtime schema check)
///   raw-mutex         no std::mutex / lock_guard / unique_lock /
///                     condition_variable outside src/common/mutex.h —
///                     locking goes through the annotated spc::Mutex
///                     wrapper so clang -Wthread-safety can see it
///   bare-relaxed      every memory_order_relaxed use carries a
///                     justification comment on the same line or
///                     within the five lines above; one comment may
///                     cover a contiguous run of relaxed lines (the
///                     seqlock publish/read idiom)
///   hot-path-call     no rand()/srand()/time()/printf-family calls in
///                     src/serve + src/dynamic (non-deterministic or
///                     blocking work on the serving/repair hot paths)
///   include-guard     headers open with the canonical
///                     PSPC_<PATH>_H_ include guard (or #pragma once)
///   void-cast         `(void)expr` result discards carry a
///                     justification comment on the same line or
///                     within the five lines above — the escape hatch
///                     for `[[nodiscard]]` Status/Result must say
///                     why the value is safe to drop
///   layer-back-edge   a src/ file includes headers of its own layer
///                     or a lower one only (the kLayers table below)
///   layer-unknown     every src/ directory, and every directory a
///                     src/ file includes from, has a kLayers entry
namespace spclint {

struct Violation {
  std::string file;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Per-line views of one translation unit after a single lexer pass.
/// Line structure is preserved so diagnostics map back exactly.
struct ScrubbedSource {
  /// Comments and string/char literals blanked (identifier-safe scan).
  std::vector<std::string> code;
  /// Comments blanked, string literals kept (metric-literal scan).
  std::vector<std::string> code_with_strings;
  /// Line contains comment text (full-line, trailing, or inside a
  /// block comment).
  std::vector<bool> has_comment;
};

inline ScrubbedSource Scrub(const std::string& content) {
  ScrubbedSource out;
  std::string code_line;
  std::string str_line;
  bool line_has_comment = false;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  char prev_code = '\0';  // last code char seen (digit-separator check)

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.code_with_strings.push_back(str_line);
    out.has_comment.push_back(line_has_comment);
    code_line.clear();
    str_line.clear();
    line_has_comment = (state == State::kBlockComment);
  };

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          line_has_comment = true;
          code_line += "  ";
          str_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          line_has_comment = true;
          code_line += "  ";
          str_line += "  ";
          ++i;
        } else if (c == '"') {
          // Raw strings are deliberately not special-cased: the tree
          // bans them implicitly (none exist) and a raw string with
          // embedded quotes would only blank conservatively.
          state = State::kString;
          code_line += ' ';
          str_line += '"';
        } else if (c == '\'' &&
                   !(std::isdigit(static_cast<unsigned char>(prev_code)) &&
                     std::isdigit(static_cast<unsigned char>(next)))) {
          // A quote between digits is a C++14 digit separator
          // (10'000), not a char literal.
          state = State::kChar;
          code_line += ' ';
          str_line += ' ';
        } else {
          code_line += c;
          str_line += c;
          prev_code = c;
        }
        break;
      case State::kLineComment:
        code_line += ' ';
        str_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          str_line += "  ";
          ++i;
        } else {
          code_line += ' ';
          str_line += ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        const bool keep = state == State::kString;  // str view keeps strings
        if (c == '\\' && next != '\0' && next != '\n') {
          code_line += "  ";
          if (keep) {
            str_line += c;
            str_line += next;
          } else {
            str_line += "  ";
          }
          ++i;
        } else if (c == quote) {
          state = State::kCode;
          code_line += ' ';
          str_line += keep ? '"' : ' ';
        } else {
          code_line += ' ';
          str_line += keep ? c : ' ';
        }
        break;
      }
    }
  }
  flush_line();
  return out;
}

/// Extracts the double-quoted string literals of one scrubbed line
/// (code_with_strings view), unescaped enough for catalog comparison.
inline std::vector<std::string> StringLiterals(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] != '"') {
      ++i;
      continue;
    }
    std::string literal;
    ++i;
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      literal += line[i];
      ++i;
    }
    ++i;  // closing quote (or end of line for an unterminated literal)
    out.push_back(literal);
  }
  return out;
}

/// The layer DAG, bottom-up: a src/ file may include headers of its
/// own layer or a lower one. common is dependency-free; graph, digraph,
/// label and order are the index building blocks; core, reduce and
/// baseline are the builders over them; obs sits below the concurrent
/// layers because dynamic and serve are instrumented with it; serve
/// consumes dynamic snapshots; tools, bench and examples sit on top.
struct LayerDir {
  std::string_view dir;
  int layer;
};
inline constexpr LayerDir kLayers[] = {
    {"src/common", 0},   {"src/graph", 1},    {"src/digraph", 1},
    {"src/label", 1},    {"src/order", 1},    {"src/core", 2},
    {"src/reduce", 2},   {"src/baseline", 2}, {"src/obs", 3},
    {"src/dynamic", 4},  {"src/serve", 5},    {"tools", 6},
    {"bench", 6},        {"examples", 6},
};

/// The kLayers layer of `path`'s directory ("src/common/x.h" ->
/// "src/common", "tools/x.cc" -> "tools"), or -1 if it has none.
inline int LayerOf(std::string_view path) {
  const size_t cut = path.rfind("src/", 0) == 0 ? path.find('/', 4)
                                                 : path.find('/');
  for (const LayerDir& entry : kLayers) {
    if (entry.dir == path.substr(0, cut)) return entry.layer;
  }
  return -1;
}

/// How the rules see one file. Derived from its repo-relative path.
struct FileClass {
  bool is_header = false;
  bool is_hot_path = false;       // src/serve/ or src/dynamic/
  bool is_metric_catalog = false; // src/obs/metric_names.h
  bool is_mutex_wrapper = false;  // src/common/mutex.h
  bool is_src = false;            // layering applies
  int layer = -1;                 // src/ files: LayerOf, -1 if none
  std::string expected_guard;     // canonical PSPC_..._H_ (headers)
};

inline std::string CanonicalGuard(const std::string& relative_path) {
  std::string guard = "PSPC_";
  for (const char c : relative_path) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

inline FileClass ClassifyFile(const std::string& relative_path) {
  FileClass fc;
  const auto ends_with = [&](std::string_view suffix) {
    return relative_path.size() >= suffix.size() &&
           relative_path.compare(relative_path.size() - suffix.size(),
                                 suffix.size(), suffix) == 0;
  };
  fc.is_header = ends_with(".h") || ends_with(".hpp");
  fc.is_hot_path = relative_path.rfind("src/serve/", 0) == 0 ||
                   relative_path.rfind("src/dynamic/", 0) == 0;
  fc.is_metric_catalog = relative_path == "src/obs/metric_names.h";
  fc.is_mutex_wrapper = relative_path == "src/common/mutex.h";
  fc.is_src = relative_path.rfind("src/", 0) == 0;
  if (fc.is_src) fc.layer = LayerOf(relative_path);
  if (fc.is_header) fc.expected_guard = CanonicalGuard(relative_path);
  return fc;
}

/// True if `token` occurs in `line` as a standalone identifier (not a
/// substring of a longer identifier or a member/namespace tail).
inline bool HasBannedCall(const std::string& line, std::string_view token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const size_t end = pos + token.size();
    const char before = pos == 0 ? '\0' : line[pos - 1];
    // Reject `foo_time(`, `x.time(`, `x->time(`, `str::time(` — but a
    // leading `std::` is still the banned function.
    bool qualified_std = false;
    if (before == ':' && pos >= 5 && line.compare(pos - 5, 5, "std::") == 0) {
      const char pre = pos == 5 ? '\0' : line[pos - 6];
      qualified_std = !(std::isalnum(static_cast<unsigned char>(pre)) ||
                        pre == '_' || pre == ':' || pre == '.' || pre == '>');
    }
    const bool boundary_ok =
        qualified_std ||
        !(std::isalnum(static_cast<unsigned char>(before)) || before == '_' ||
          before == ':' || before == '.' || before == '>');
    size_t after = end;
    while (after < line.size() && line[after] == ' ') ++after;
    if (boundary_ok && after < line.size() && line[after] == '(') return true;
    pos = end;
  }
  return false;
}

inline std::string_view Trim(std::string_view s) {
  const size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/// The path of a `#include "path"` line, or empty for any other line.
inline std::string_view QuotedInclude(std::string_view line) {
  line = Trim(line);
  if (line.rfind("#include \"", 0) != 0) return {};
  line.remove_prefix(10);
  return line.substr(0, line.find('"'));
}

struct LintOptions {
  /// Allowed metric names (parsed from src/obs/metric_names.h).
  std::set<std::string> metric_catalog;
};

/// Lints one file's content. `relative_path` drives classification and
/// appears verbatim in diagnostics.
inline std::vector<Violation> LintFile(const std::string& relative_path,
                                       const std::string& content,
                                       const LintOptions& options) {
  std::vector<Violation> violations;
  const FileClass fc = ClassifyFile(relative_path);
  const ScrubbedSource src = Scrub(content);
  const auto add = [&](size_t line, const char* rule, std::string message) {
    violations.push_back(
        {relative_path, line + 1, rule, std::move(message)});
  };

  // Composed as adjacent literals so the linter's own source never
  // trips the metric-literal rule.
  const std::string kServePrefix = "serve" ".";
  const std::string kDynamicPrefix = "dynamic" ".";

  static constexpr std::string_view kRawLockTypes[] = {
      "std" "::mutex",         "std" "::recursive_mutex",
      "std" "::shared_mutex",  "std" "::timed_mutex",
      "std" "::lock_guard",    "std" "::unique_lock",
      "std" "::scoped_lock",   "std" "::shared_lock",
      "std" "::condition_variable",
  };
  static constexpr std::string_view kBannedHotCalls[] = {
      "rand", "srand", "time", "printf", "fprintf", "sprintf", "puts",
  };

  if (fc.is_src && fc.layer < 0) {
    add(0, "layer-unknown",
        "the directory of " + relative_path +
            " has no layer in kLayers (tools/lint_rules.h); place it "
            "there before adding code");
  }

  bool relaxed_justified_above = false;
  for (size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];

    if (!fc.is_metric_catalog) {
      for (const std::string& literal :
           StringLiterals(src.code_with_strings[i])) {
        const bool metric_like =
            literal.rfind(kServePrefix, 0) == 0 ||
            literal.rfind(kDynamicPrefix, 0) == 0;
        if (metric_like && options.metric_catalog.count(literal) == 0) {
          add(i, "metric-literal",
              "metric name \"" + literal +
                  "\" is not in the src/obs/metric_names.h catalog");
        }
      }
    }

    if (!fc.is_mutex_wrapper) {
      for (const std::string_view type : kRawLockTypes) {
        if (code.find(type) != std::string::npos) {
          add(i, "raw-mutex",
              std::string(type) +
                  " outside src/common/mutex.h; use the annotated "
                  "spc::Mutex / spc::MutexLock / spc::CondVar wrappers");
          break;
        }
      }
    }

    const size_t relaxed_pos = code.find("memory_order_relaxed");
    if (relaxed_pos != std::string::npos) {
      bool justified = false;
      for (size_t back = 0; back <= 5 && back <= i; ++back) {
        if (src.has_comment[i - back]) {
          justified = true;
          break;
        }
      }
      // A justified relaxed line extends cover to a directly adjacent
      // relaxed line (contiguous clusters share one comment).
      if (!justified && i > 0 && relaxed_justified_above &&
          src.code[i - 1].find("memory_order_relaxed") !=
              std::string::npos) {
        justified = true;
      }
      relaxed_justified_above = justified;
      if (!justified) {
        add(i, "bare-relaxed",
            "memory_order_relaxed without a justification comment on "
            "this line or the five lines above");
      }
    } else {
      relaxed_justified_above = false;
    }

    if (fc.is_hot_path) {
      for (const std::string_view call : kBannedHotCalls) {
        if (HasBannedCall(code, call)) {
          add(i, "hot-path-call",
              std::string(call) +
                  "() on a serving/repair hot path (src/serve, "
                  "src/dynamic ban non-deterministic/blocking libc "
                  "calls)");
        }
      }
    }

    // `(void)x` deliberately discards a value; the discard must be
    // justified in a comment (same idiom as bare-relaxed). `f(void)`
    // parameter lists and `(void*)` casts don't match: the cast must
    // be followed by an identifier.
    const size_t void_pos = code.find("(void)");
    if (void_pos != std::string::npos) {
      size_t after = void_pos + 6;
      while (after < code.size() && code[after] == ' ') ++after;
      const char target = after < code.size() ? code[after] : '\0';
      if (std::isalpha(static_cast<unsigned char>(target)) ||
          target == '_') {
        bool justified = false;
        for (size_t back = 0; back <= 5 && back <= i; ++back) {
          if (src.has_comment[i - back]) {
            justified = true;
            break;
          }
        }
        if (!justified) {
          add(i, "void-cast",
              "(void) cast without a justification comment on this line "
              "or the five lines above — say why the value is safe to "
              "drop");
        }
      }
    }

    const std::string_view included =
        fc.layer >= 0 ? QuotedInclude(src.code_with_strings[i]) : "";
    if (!included.empty()) {
      const int layer = LayerOf(included);
      if (layer < 0) {
        add(i, "layer-unknown",
            "include of \"" + std::string(included) +
                "\": its directory has no layer in kLayers "
                "(tools/lint_rules.h)");
      } else if (layer > fc.layer) {
        add(i, "layer-back-edge",
            "layer " + std::to_string(fc.layer) + " file includes \"" +
                std::string(included) + "\" of layer " +
                std::to_string(layer) + ": a back-edge in the layer DAG");
      }
    }
  }

  if (fc.is_header) {
    // First non-blank code line must open the guard: `#pragma once` or
    // `#ifndef <canonical>` immediately followed by `#define
    // <canonical>`.
    size_t first = 0;
    while (first < src.code.size() &&
           src.code[first].find_first_not_of(" \t") == std::string::npos) {
      ++first;
    }
    const auto trimmed = [&](size_t i) {
      return std::string(Trim(src.code[i]));
    };
    bool ok = false;
    if (first < src.code.size()) {
      const std::string open = trimmed(first);
      if (open == "#pragma once") {
        ok = true;
      } else if (open == "#ifndef " + fc.expected_guard) {
        size_t next = first + 1;
        while (next < src.code.size() && trimmed(next).empty()) ++next;
        ok = next < src.code.size() &&
             trimmed(next) == "#define " + fc.expected_guard;
      }
    }
    if (!ok) {
      add(first < src.code.size() ? first : 0, "include-guard",
          "header must open with `#ifndef " + fc.expected_guard +
              "` / `#define " + fc.expected_guard + "` (or #pragma once)");
    }
  }

  return violations;
}

/// Parses the allowed metric-name set out of the catalog header: every
/// string literal that looks like a dotted metric name.
inline std::set<std::string> ParseMetricCatalog(const std::string& content) {
  std::set<std::string> catalog;
  const ScrubbedSource src = Scrub(content);
  for (const std::string& line : src.code_with_strings) {
    for (const std::string& literal : StringLiterals(line)) {
      if (literal.find('.') != std::string::npos &&
          literal.find(' ') == std::string::npos && !literal.empty()) {
        catalog.insert(literal);
      }
    }
  }
  return catalog;
}

inline bool ReadFile(const std::filesystem::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Lints the repo rooted at `root` (the directories the invariants
/// cover: src/, tools/, examples/, bench/, tests/ — minus the golden
/// violation corpus, which is deliberately bad). Returns all
/// violations, sorted by path then line. Missing metric catalog is
/// itself an error (`*error` set, non-empty).
inline std::vector<Violation> LintTree(const std::filesystem::path& root,
                                       std::string* error) {
  std::vector<Violation> violations;
  error->clear();

  LintOptions options;
  {
    std::string catalog_content;
    if (!ReadFile(root / "src/obs/metric_names.h", &catalog_content)) {
      *error = "cannot read src/obs/metric_names.h under " + root.string();
      return violations;
    }
    options.metric_catalog = ParseMetricCatalog(catalog_content);
    if (options.metric_catalog.empty()) {
      *error = "metric catalog parsed empty from src/obs/metric_names.h";
      return violations;
    }
  }

  static constexpr std::string_view kScannedDirs[] = {
      "src", "tools", "examples", "bench", "tests"};
  std::vector<std::filesystem::path> files;
  for (const std::string_view dir : kScannedDirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::is_directory(base)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  for (const std::filesystem::path& path : files) {
    std::string content;
    if (!ReadFile(path, &content)) {
      *error = "cannot read " + path.string();
      return violations;
    }
    const std::string relative =
        std::filesystem::relative(path, root).generic_string();
    // The golden corpus is violations on purpose.
    if (relative.rfind("tests/lint_corpus/", 0) == 0) continue;
    std::vector<Violation> file_violations =
        LintFile(relative, content, options);
    violations.insert(violations.end(), file_violations.begin(),
                      file_violations.end());
  }
  return violations;
}

}  // namespace spclint

#endif  // PSPC_TOOLS_LINT_RULES_H_
