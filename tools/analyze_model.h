#ifndef PSPC_TOOLS_ANALYZE_MODEL_H_
#define PSPC_TOOLS_ANALYZE_MODEL_H_

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_rules.h"

/// spc_analyze's semantic model and cross-file passes.
///
/// Where spc_lint (tools/lint_rules.h) checks token-level invariants
/// one line at a time, this header parses the whole tree into a
/// lightweight semantic model — classes, members, functions, the
/// GUARDED_BY / REQUIRES / EXCLUDES / ACQUIRE annotations from
/// src/common/thread_annotations.h, an approximate call graph, and the
/// #include graph — and runs three *cross-file* passes over it:
///
///   lock-order        derives the lock acquisition-order graph from
///                     nested spc::MutexLock scopes, REQUIRES edges,
///                     and (transitively) resolved calls; any cycle is
///                     a potential deadlock. `lock-hierarchy` checks
///                     observed edges against the declared order in
///                     tools/lock_hierarchy.txt, and `lock-unregistered`
///                     requires every src/ class-member spc::Mutex to
///                     be declared there.
///   pin-escape        an epoch pin (SnapshotRef, or any RAII
///                     capability whose constructor is ACQUIRE /
///                     SCOPED_CAPABILITY-annotated) must not outlive
///                     its acquiring scope: not stored in a class
///                     member or container, not captured by a lambda —
///                     unless the holder explicitly Release()s /
///                     Unlock()s it.
///   layering          the declared layer DAG in tools/layer_dag.txt
///                     (common -> graph/digraph/label/order -> core/
///                     reduce/baseline -> obs -> dynamic -> serve ->
///                     tools/bench/examples) fails on any back-edge
///                     #include.
///
/// The parser reuses spc_lint's comment/string-aware lexer (Scrub), is
/// dependency-free by design, and is *approximate*: it resolves calls
/// by receiver type where a local/member/parameter type is known and
/// drops what it cannot resolve, so it under-reports rather than
/// drowning real findings in noise. Pass semantics are pinned by the
/// golden corpus in tests/analyze_corpus/ (tests/analyze_corpus_test.cc).
namespace spcanalyze {

using spclint::ReadFile;
using spclint::ScrubbedSource;
using spclint::Violation;

// ---------------------------------------------------------------- tokens

struct Token {
  std::string text;
  size_t line = 0;  // 0-based; Violation reports line + 1
};

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Tokenizes scrubbed code into identifiers/numbers and punctuation
/// (with `::` and `->` fused). Preprocessor lines (and their backslash
/// continuations, taken from the raw content) are dropped — include
/// directives are extracted separately from the string-preserving view.
inline std::vector<Token> Tokenize(const ScrubbedSource& src,
                                   const std::string& raw_content) {
  // Mark preprocessor lines using the raw text (continuations included).
  std::vector<std::string> raw_lines;
  {
    std::string line;
    for (const char c : raw_content) {
      if (c == '\n') {
        raw_lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    raw_lines.push_back(line);
  }
  std::vector<bool> is_preproc(src.code.size(), false);
  bool continued = false;
  for (size_t i = 0; i < src.code.size() && i < raw_lines.size(); ++i) {
    const std::string& raw = raw_lines[i];
    const size_t first = raw.find_first_not_of(" \t");
    const bool starts_hash = first != std::string::npos && raw[first] == '#';
    is_preproc[i] = continued || starts_hash;
    continued = is_preproc[i] && !raw.empty() && raw.back() == '\\';
  }

  std::vector<Token> tokens;
  for (size_t li = 0; li < src.code.size(); ++li) {
    if (is_preproc[li]) continue;
    const std::string& line = src.code[li];
    size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsIdentChar(c)) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        tokens.push_back({line.substr(i, j - i), li});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tokens.push_back({"::", li});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        tokens.push_back({"->", li});
        i += 2;
        continue;
      }
      tokens.push_back({std::string(1, c), li});
      ++i;
    }
  }
  return tokens;
}

// ----------------------------------------------------------------- model

struct Member {
  std::string type;        // whitespace-joined type tokens
  std::string name;
  std::string guarded_by;  // raw GUARDED_BY argument ("" = none)
  bool is_mutex = false;   // spc::Mutex (not MutexLock)
  size_t line = 0;         // 0-based
};

struct FunctionModel {
  std::string cls;         // enclosing or qualifying class ("" = free)
  std::string name;        // unqualified
  std::string return_type; // leading type identifier ("Status", "Result", ...)
  std::vector<std::string> requires_args;
  std::vector<std::string> acquire_args;   // ACQUIRE(...) annotation
  std::vector<std::string> exclude_args;
  bool scoped_acquire = false;  // ctor of a SCOPED_CAPABILITY class
  size_t body_begin = 0, body_end = 0;  // token range [begin, end)
  size_t line = 0;                      // 0-based declaration line
  size_t file_index = 0;
  // Parameter name -> type identifier (for receiver resolution).
  std::map<std::string, std::string> param_types;
};

struct ClassModel {
  std::string name;
  bool scoped_capability = false;  // SCOPED_CAPABILITY-annotated
  std::vector<Member> members;
  size_t line = 0;
  size_t file_index = 0;
};

struct IncludeEdge {
  std::string target;  // repo-relative quoted include path
  size_t line = 0;     // 0-based
};

struct FileModel {
  std::string path;  // repo-relative, generic separators
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  std::vector<ClassModel> classes;
  std::vector<FunctionModel> functions;
};

struct Model {
  std::vector<FileModel> files;
  // Global lookups (indices into files/classes/functions).
  std::map<std::string, const ClassModel*> classes_by_name;
  std::multimap<std::string, const FunctionModel*> functions_by_name;
  std::set<std::string> pin_types;  // SnapshotRef + scoped capabilities
};

// ---------------------------------------------------------------- parser

namespace detail {

inline bool IsAnnotationMacro(const std::string& t) {
  return t == "GUARDED_BY" || t == "PT_GUARDED_BY" || t == "REQUIRES" ||
         t == "REQUIRES_SHARED" || t == "ACQUIRE" || t == "RELEASE" ||
         t == "EXCLUDES" || t == "RETURN_CAPABILITY" ||
         t == "CAPABILITY" || t == "ASSERT_CAPABILITY" ||
         t == "PSPC_THREAD_ANNOTATION";
}

inline bool IsControlKeyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "catch" || t == "sizeof" || t == "decltype" ||
         t == "alignas" || t == "alignof" || t == "noexcept" ||
         t == "static_assert" || t == "new" || t == "delete" ||
         t == "static_cast" || t == "const_cast" || t == "reinterpret_cast" ||
         t == "dynamic_cast" || t == "throw" || t == "do" || t == "else" ||
         t == "co_return" || t == "co_await";
}

/// Skips the group opened by the token at `i` (must be `(`, `{`, `[` or
/// `<`); returns the index one past the matching closer. For `<` this
/// is a heuristic (used only for template heads) that aborts on `;`.
inline size_t SkipGroup(const std::vector<Token>& toks, size_t i) {
  const std::string& open = toks[i].text;
  const std::string close = open == "(" ? ")"
                            : open == "{" ? "}"
                            : open == "[" ? "]"
                                          : ">";
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (open == "<" && t == ";") return i;  // not a template head after all
    if (t == open) {
      ++depth;
    } else if (t == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// Splits an annotation argument list `(a, b)` starting at the `(` into
/// raw per-argument strings (tokens joined without spaces except around
/// identifiers). Returns index one past `)`.
inline size_t ParseAnnotationArgs(const std::vector<Token>& toks, size_t i,
                                  std::vector<std::string>* out) {
  int depth = 0;
  std::string current;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") {
      if (++depth == 1) continue;
    } else if (t == ")") {
      if (--depth == 0) {
        if (!current.empty()) out->push_back(current);
        return i + 1;
      }
    } else if (t == "," && depth == 1) {
      if (!current.empty()) out->push_back(current);
      current.clear();
      continue;
    }
    if (depth >= 1) current += t;
    }
  return toks.size();
}

}  // namespace detail

/// Parses one file's token stream into classes and functions. The
/// grammar is deliberately partial: namespaces and classes establish
/// scopes, functions capture their body token range and annotations,
/// class-scope declarations without parameter lists become members.
inline void ParseFile(FileModel* file, size_t file_index) {
  const std::vector<Token>& toks = file->tokens;

  struct Scope {
    enum Kind { kNamespace, kClass, kSkip } kind;
    std::string name;  // class name for kClass
    size_t class_index = 0;
  };
  std::vector<Scope> scopes;
  const auto enclosing_class = [&]() -> ClassModel* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kClass) return &file->classes[it->class_index];
      if (it->kind == Scope::kSkip) return nullptr;
    }
    return nullptr;
  };

  size_t i = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;

    if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }
    if (t == "namespace") {
      // `namespace X {` or anonymous `namespace {`.
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j < toks.size() && toks[j].text == "{") {
        scopes.push_back({Scope::kNamespace, "", 0});
      }
      i = j + 1;
      continue;
    }
    if (t == "template") {
      // Skip the parameter head; the declaration follows normally.
      if (i + 1 < toks.size() && toks[i + 1].text == "<") {
        i = detail::SkipGroup(toks, i + 1);
      } else {
        ++i;
      }
      continue;
    }
    if (t == "enum") {
      // Skip to `;` or over the enumerator block.
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j < toks.size() && toks[j].text == "{") j = detail::SkipGroup(toks, j);
      // Trailing `;` (or variable name) consumed by normal scanning.
      i = j;
      continue;
    }
    if (t == "class" || t == "struct" || t == "union") {
      // Find the name; skip annotation macros / alignas groups. A `;`
      // before `{` is a forward declaration.
      size_t j = i + 1;
      std::string name;
      bool scoped_cap = false;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        const std::string& tj = toks[j].text;
        if (tj == "SCOPED_CAPABILITY") {
          scoped_cap = true;
          ++j;
        } else if (detail::IsAnnotationMacro(tj) || tj == "alignas") {
          ++j;
          if (j < toks.size() && toks[j].text == "(") {
            j = detail::SkipGroup(toks, j);
          }
        } else if (tj == ":") {
          break;  // base clause; name already seen
        } else {
          if (IsIdentChar(tj[0]) && !std::isdigit(static_cast<unsigned char>(
                                        tj[0]))) {
            if (tj != "final" && tj != "public" && tj != "private" &&
                tj != "protected") {
              name = tj;
            }
          }
          ++j;
        }
      }
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j < toks.size() && toks[j].text == "{") {
        if (name.empty()) name = "<anonymous>";
        ClassModel cls;
        cls.name = name;
        cls.scoped_capability = scoped_cap;
        cls.line = toks[i].line;
        cls.file_index = file_index;
        file->classes.push_back(cls);
        scopes.push_back({Scope::kClass, name, file->classes.size() - 1});
      }
      i = j + 1;
      continue;
    }
    if (t == "public" || t == "private" || t == "protected") {
      i += (i + 1 < toks.size() && toks[i + 1].text == ":") ? 2 : 1;
      continue;
    }
    if (t == "using" || t == "typedef" || t == "friend" ||
        t == "static_assert" || t == "extern") {
      while (i < toks.size() && toks[i].text != ";") {
        if (toks[i].text == "{" || toks[i].text == "(") {
          i = detail::SkipGroup(toks, i);
        } else {
          ++i;
        }
      }
      ++i;
      continue;
    }
    if (t == ";") {
      ++i;
      continue;
    }

    // Generic declaration at namespace/class scope: scan until `;` or a
    // body `{`, collecting structure along the way.
    const size_t decl_begin = i;
    const size_t decl_line = toks[i].line;
    size_t paren_open = 0;     // index of the parameter-list `(`; 0 = none
    size_t paren_close = 0;    // index of its `)`
    std::string fn_name, fn_class;
    std::vector<std::string> requires_args, acquire_args, exclude_args;
    bool body_found = false;
    size_t j = i;
    while (j < toks.size()) {
      const std::string& tj = toks[j].text;
      if (tj == ";") break;
      if (detail::IsAnnotationMacro(tj)) {
        std::vector<std::string>* sink = nullptr;
        if (tj == "REQUIRES" || tj == "REQUIRES_SHARED") sink = &requires_args;
        if (tj == "ACQUIRE") sink = &acquire_args;
        if (tj == "EXCLUDES") sink = &exclude_args;
        ++j;
        if (j < toks.size() && toks[j].text == "(") {
          std::vector<std::string> args;
          j = detail::ParseAnnotationArgs(toks, j, &args);
          if (sink != nullptr) {
            sink->insert(sink->end(), args.begin(), args.end());
          }
        }
        continue;
      }
      if (tj == "(" ) {
        if (paren_open == 0 && j > decl_begin &&
            IsIdentChar(toks[j - 1].text[0]) &&
            !detail::IsControlKeyword(toks[j - 1].text)) {
          // Parameter list of a function named by the previous token.
          paren_open = j;
          fn_name = toks[j - 1].text;
          if (j >= 3 && toks[j - 2].text == "::" &&
              IsIdentChar(toks[j - 3].text[0])) {
            fn_class = toks[j - 3].text;
          }
          j = detail::SkipGroup(toks, j);
          paren_close = j - 1;
          continue;
        }
        j = detail::SkipGroup(toks, j);
        continue;
      }
      if (tj == "{") {
        if (paren_open != 0) {
          body_found = true;  // function body (or begins its init list)
          break;
        }
        // Brace initializer of a variable/member: skip and continue the
        // declaration (`std::atomic<uint64_t> epoch_{1};`).
        j = detail::SkipGroup(toks, j);
        continue;
      }
      if (tj == ":" && paren_open != 0) {
        // Constructor initializer list: `name(...)` / `name{...}`
        // entries, then the body `{`.
        ++j;
        while (j < toks.size()) {
          while (j < toks.size() && toks[j].text != "(" &&
                 toks[j].text != "{" && toks[j].text != ";") {
            ++j;
          }
          if (j >= toks.size() || toks[j].text == ";") break;
          const bool was_paren = toks[j].text == "(";
          const size_t group_begin = j;
          // A `{` directly after `)` or `}` of the previous entry (i.e.
          // not preceded by an identifier) is the body.
          if (!was_paren && group_begin > 0 &&
              !IsIdentChar(toks[group_begin - 1].text[0])) {
            break;
          }
          j = detail::SkipGroup(toks, j);
          if (j < toks.size() && toks[j].text == ",") continue;
          // Next token should be `{` (body) or another initializer.
          if (j < toks.size() && toks[j].text == "{") break;
        }
        if (j < toks.size() && toks[j].text == "{") {
          body_found = true;
        }
        break;
      }
      ++j;
    }

    ClassModel* cls = enclosing_class();

    if (paren_open != 0 && (body_found || (j < toks.size() &&
                                           toks[j].text == ";"))) {
      // Function (declaration or definition).
      FunctionModel fn;
      fn.name = fn_name;
      fn.cls = !fn_class.empty() ? fn_class : (cls != nullptr ? cls->name : "");
      fn.line = decl_line;
      fn.file_index = file_index;
      fn.requires_args = requires_args;
      fn.acquire_args = acquire_args;
      fn.exclude_args = exclude_args;
      // Return type: first identifier token of the declaration that is
      // not a qualifier/keyword (void, Status, Result, ...).
      for (size_t k = decl_begin; k < paren_open - 1; ++k) {
        const std::string& tk = toks[k].text;
        if (!IsIdentChar(tk[0])) continue;
        if (tk == "const" || tk == "constexpr" || tk == "inline" ||
            tk == "static" || tk == "virtual" || tk == "explicit" ||
            tk == "mutable" || tk == "typename" || tk == "std" ||
            tk == "pspc" || tk == "spc") {
          continue;
        }
        fn.return_type = tk;
        break;
      }
      // Ctor of a scoped-capability class (or ACQUIRE-annotated ctor):
      // acquiring RAII type.
      if (cls != nullptr && fn.name == cls->name &&
          (cls->scoped_capability || !acquire_args.empty())) {
        fn.scoped_acquire = true;
      }
      // Parameters: `Type name` pairs split on top-level commas.
      {
        int depth = 0;
        std::vector<std::string> seg;
        const auto flush_param = [&] {
          // Last identifier = name; last type-ish identifier before it
          // = type.
          if (seg.size() < 2) {
            seg.clear();
            return;
          }
          const std::string name = seg.back();
          std::string type;
          for (size_t k = 0; k + 1 < seg.size(); ++k) {
            const std::string& s = seg[k];
            if (s == "const" || s == "std" || s == "spc" || s == "pspc") {
              continue;
            }
            type = s;
          }
          if (!type.empty() && IsIdentChar(name[0]) &&
              !std::isdigit(static_cast<unsigned char>(name[0]))) {
            fn.param_types[name] = type;
          }
          seg.clear();
        };
        for (size_t k = paren_open + 1; k < paren_close; ++k) {
          const std::string& tk = toks[k].text;
          if (tk == "(" || tk == "<" || tk == "[" || tk == "{") ++depth;
          if (tk == ")" || tk == ">" || tk == "]" || tk == "}") --depth;
          if (tk == "," && depth == 0) {
            flush_param();
            continue;
          }
          if (depth == 0 && IsIdentChar(tk[0])) seg.push_back(tk);
        }
        flush_param();
      }
      if (body_found) {
        // j is at the body `{`.
        fn.body_begin = j + 1;
        const size_t after = detail::SkipGroup(toks, j);
        fn.body_end = after > 0 ? after - 1 : after;  // exclude the `}`
        file->functions.push_back(fn);
        i = after;
      } else {
        file->functions.push_back(fn);
        i = j + 1;  // past `;`
      }
      continue;
    }

    if (cls != nullptr && paren_open == 0 && j < toks.size() &&
        toks[j].text == ";") {
      // Member declaration(s). Name = identifier before GUARDED_BY if
      // annotated, else the last identifier before `=`/`;`.
      Member m;
      m.line = decl_line;
      std::vector<std::string> idents;
      size_t name_k = 0;
      int tdepth = 0;
      bool in_template_args = false;
      std::string tmpl_args;
      for (size_t k = decl_begin; k < j; ++k) {
        const std::string& tk = toks[k].text;
        if (tk == "GUARDED_BY" || tk == "PT_GUARDED_BY") {
          std::vector<std::string> args;
          const size_t after = detail::ParseAnnotationArgs(toks, k + 1, &args);
          if (!args.empty()) m.guarded_by = args[0];
          if (name_k == 0 && k > decl_begin) name_k = k - 1;
          k = after - 1;
          continue;
        }
        if (tk == "=") break;
        if (tk == "<") {
          ++tdepth;
          in_template_args = true;
          continue;
        }
        if (tk == ">") {
          --tdepth;
          continue;
        }
        if (IsIdentChar(tk[0])) {
          idents.push_back(tk);
          if (in_template_args && tdepth > 0) tmpl_args += tk + " ";
          if (name_k == 0) m.name = tk;  // provisional: last ident wins
        }
      }
      if (name_k != 0) {
        m.name = toks[name_k].text;
      } else if (!idents.empty()) {
        m.name = idents.back();
      }
      // Type = all identifiers except the final name.
      std::string type;
      for (const std::string& id : idents) {
        if (&id == &idents.back() && id == m.name) break;
        if (!type.empty()) type += " ";
        type += id;
      }
      m.type = type;
      const bool mentions_mutex =
          type.find("Mutex") != std::string::npos &&
          type.find("MutexLock") == std::string::npos;
      m.is_mutex = mentions_mutex;
      // `Type& operator=(...) = delete;` is a function, not a member.
      const bool is_operator_decl =
          std::find(idents.begin(), idents.end(), "operator") != idents.end() ||
          m.name == "operator";
      if (!m.name.empty() && !m.type.empty() && !is_operator_decl &&
          !std::isdigit(static_cast<unsigned char>(m.name[0]))) {
        cls->members.push_back(m);
      }
      i = j + 1;
      continue;
    }

    // Unrecognized declaration (global variable, macro call, ...): skip
    // past its terminator.
    if (j < toks.size() && toks[j].text == "{") {
      i = detail::SkipGroup(toks, j);
    } else {
      i = j + 1;
    }
  }
}

/// Extracts quoted includes from the string-preserving scrub view.
inline std::vector<IncludeEdge> ParseIncludes(const ScrubbedSource& src) {
  std::vector<IncludeEdge> out;
  for (size_t i = 0; i < src.code_with_strings.size(); ++i) {
    const std::string& line = src.code_with_strings[i];
    const size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    if (line.find("include", hash) == std::string::npos) continue;
    const std::vector<std::string> literals = spclint::StringLiterals(line);
    if (!literals.empty()) out.push_back({literals[0], i});
  }
  return out;
}

/// Builds the whole-tree model over the given repo-relative files.
inline Model BuildModel(
    const std::vector<std::pair<std::string, std::string>>& path_contents) {
  Model model;
  model.files.reserve(path_contents.size());
  for (size_t fi = 0; fi < path_contents.size(); ++fi) {
    const auto& [path, content] = path_contents[fi];
    FileModel file;
    file.path = path;
    const ScrubbedSource src = spclint::Scrub(content);
    file.tokens = Tokenize(src, content);
    file.includes = ParseIncludes(src);
    ParseFile(&file, fi);
    model.files.push_back(std::move(file));
  }
  // Annotations live on first declarations (clang TSA convention);
  // inherit them onto out-of-line definitions so body analysis sees
  // REQUIRES/ACQUIRE contracts declared in headers.
  for (FileModel& file : model.files) {
    for (FunctionModel& fn : file.functions) {
      if (fn.body_end <= fn.body_begin) continue;  // not a definition
      if (!fn.requires_args.empty() || !fn.acquire_args.empty() ||
          !fn.exclude_args.empty()) {
        continue;
      }
      for (const FileModel& other : model.files) {
        for (const FunctionModel& decl : other.functions) {
          if (decl.body_end > decl.body_begin) continue;
          if (decl.cls != fn.cls || decl.name != fn.name) continue;
          fn.requires_args = decl.requires_args;
          fn.acquire_args = decl.acquire_args;
          fn.exclude_args = decl.exclude_args;
        }
      }
    }
  }
  model.pin_types.insert("SnapshotRef");
  for (const FileModel& file : model.files) {
    for (const ClassModel& cls : file.classes) {
      if (model.classes_by_name.count(cls.name) == 0) {
        model.classes_by_name[cls.name] = &cls;
      }
      if (cls.scoped_capability) model.pin_types.insert(cls.name);
    }
    for (const FunctionModel& fn : file.functions) {
      model.functions_by_name.emplace(fn.name, &fn);
      if (fn.scoped_acquire && !fn.cls.empty()) {
        model.pin_types.insert(fn.cls);
      }
    }
  }
  return model;
}

}  // namespace spcanalyze

#endif  // PSPC_TOOLS_ANALYZE_MODEL_H_
