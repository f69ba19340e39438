#ifndef PSPC_TOOLS_ANALYZE_PASSES_H_
#define PSPC_TOOLS_ANALYZE_PASSES_H_

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analyze_model.h"

/// The three cross-file passes over spcanalyze::Model (see
/// tools/analyze_model.h for the model and the pass overview) plus the
/// tree driver `AnalyzeTree` that spc_analyze and the corpus tests
/// share. Configuration lives in two checked-in files:
///
///   tools/lock_hierarchy.txt   the declared lock acquisition order,
///                              one canonical `Class::member` name per
///                              line, outermost (acquired first) at the
///                              top; every class-member spc::Mutex under
///                              src/ must be listed
///   tools/layer_dag.txt        the layer DAG, one `layer <dir>...`
///                              line per level, bottom-up; an #include
///                              from a lower layer into a higher one is
///                              a back-edge
namespace spcanalyze {

// ------------------------------------------------------------ resolution

/// Last whitespace-separated word of a type string — the class-name
/// candidate of "obs Histogram" or "std vector".
inline std::string TypeTail(const std::string& type) {
  const size_t pos = type.find_last_of(' ');
  return pos == std::string::npos ? type : type.substr(pos + 1);
}

/// Per-function symbol table: name -> type identifier, built from
/// parameters, enclosing-class members, and local declarations.
class SymbolTable {
 public:
  SymbolTable(const Model& model, const FunctionModel& fn) : model_(model) {
    if (!fn.cls.empty()) {
      const auto it = model.classes_by_name.find(fn.cls);
      if (it != model.classes_by_name.end()) {
        for (const Member& m : it->second->members) {
          types_[m.name] = TypeTail(m.type);
        }
      }
    }
    for (const auto& [name, type] : fn.param_types) types_[name] = type;
  }

  void Declare(const std::string& name, const std::string& type) {
    types_[name] = type;
  }

  /// Type identifier of `name`, or "" if unknown.
  std::string TypeOf(const std::string& name) const {
    const auto it = types_.find(name);
    return it == types_.end() ? std::string() : it->second;
  }

  /// Resolves a member function `cls::name` to its model entry
  /// (declaration or definition; one with a body preferred).
  const FunctionModel* Resolve(const std::string& cls,
                               const std::string& name) const {
    const FunctionModel* found = nullptr;
    auto [lo, hi] = model_.functions_by_name.equal_range(name);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->cls != cls) continue;
      if (found == nullptr || it->second->body_end > it->second->body_begin) {
        found = it->second;
      }
    }
    return found;
  }

  /// Resolves a bare call in the context of `enclosing_cls`: the
  /// enclosing class's member first, then a unique free function.
  const FunctionModel* ResolveBare(const std::string& enclosing_cls,
                                   const std::string& name) const {
    if (!enclosing_cls.empty()) {
      const FunctionModel* member = Resolve(enclosing_cls, name);
      if (member != nullptr) return member;
    }
    return Resolve("", name);
  }

 private:
  const Model& model_;
  std::map<std::string, std::string> types_;
};

/// Canonicalizes a mutex expression (annotation argument or MutexLock
/// constructor argument) to `Class::member`. Returns "" if the
/// expression cannot be resolved to a declared mutex member.
inline std::string CanonicalMutex(const Model& model, const SymbolTable& syms,
                                  const std::string& enclosing_cls,
                                  const std::string& expr) {
  // Split `a.b` / `a->b`; annotation args arrive with tokens joined.
  std::string receiver, member = expr;
  for (const std::string_view sep : {"->", "."}) {
    const size_t pos = expr.find(sep);
    if (pos != std::string::npos) {
      receiver = expr.substr(0, pos);
      member = expr.substr(pos + sep.size());
      break;
    }
  }
  const auto is_mutex_member_of = [&](const std::string& cls) -> bool {
    const auto it = model.classes_by_name.find(cls);
    if (it == model.classes_by_name.end()) return false;
    for (const Member& m : it->second->members) {
      if (m.name == member && m.is_mutex) return true;
    }
    return false;
  };
  if (receiver.empty()) {
    if (!enclosing_cls.empty() && is_mutex_member_of(enclosing_cls)) {
      return enclosing_cls + "::" + member;
    }
    return "";
  }
  const std::string receiver_type = syms.TypeOf(receiver);
  if (!receiver_type.empty() && is_mutex_member_of(receiver_type)) {
    return receiver_type + "::" + member;
  }
  return "";
}

// ----------------------------------------------------------- body events

/// One lock-relevant or call event in a function body, in source order.
struct BodyEvent {
  enum Kind {
    kAcquire,       // spc::MutexLock var(mu) or mu.Lock()
    kRelease,       // var.Unlock() / mu.Unlock()
    kReacquire,     // var.Lock() on a MutexLock variable
    kScopeOpen,     // `{`
    kScopeClose,    // `}`
    kCall,          // resolved (or resolvable-by-name) call
    kLambda,        // lambda introducer; captures in `captures`
    kPinLocal,      // declaration of a pin-typed local
    kPinContainer,  // local whose template args mention a pin type
  };
  Kind kind;
  size_t line = 0;
  std::string mutex_name;  // kAcquire/kRelease/kReacquire: canonical name
  std::string lock_var;    // MutexLock variable ("" for direct .Lock())
  std::string callee;      // kCall: function name
  std::string receiver_type;  // kCall: "" if bare
  bool receiver_typed = false;  // receiver present and resolved
  bool receiver_present = false;
  std::string var;                     // kPin*: variable name
  std::vector<std::string> captures;   // kLambda
};

/// Walks one function body and emits events. Shared by the lock-order
/// and pin-escape passes so they agree on what the body says.
inline std::vector<BodyEvent> ScanBody(const Model& model,
                                       const FileModel& file,
                                       const FunctionModel& fn,
                                       SymbolTable* syms) {
  std::vector<BodyEvent> events;
  const std::vector<Token>& toks = file.tokens;
  const auto text = [&](size_t k) -> const std::string& {
    static const std::string empty;
    return k < toks.size() ? toks[k].text : empty;
  };

  for (size_t k = fn.body_begin; k < fn.body_end; ++k) {
    const std::string& t = toks[k].text;

    if (t == "{") {
      events.push_back({BodyEvent::kScopeOpen, toks[k].line, "", "", "", "",
                        false, false, "", {}});
      continue;
    }
    if (t == "}") {
      events.push_back({BodyEvent::kScopeClose, toks[k].line, "", "", "", "",
                        false, false, "", {}});
      continue;
    }

    // Lambda introducer: `[` at expression position.
    if (t == "[") {
      const std::string& prev = k > fn.body_begin ? toks[k - 1].text : "{";
      const bool expr_pos = prev == "=" || prev == "(" || prev == "," ||
                            prev == "{" || prev == ";" || prev == "return";
      if (expr_pos) {
        BodyEvent ev{BodyEvent::kLambda, toks[k].line, "", "", "", "",
                     false,  false,      "", {}};
        size_t j = k + 1;
        int depth = 1;
        for (; j < fn.body_end && depth > 0; ++j) {
          if (toks[j].text == "[") ++depth;
          if (toks[j].text == "]") --depth;
          if (depth == 1 && spcanalyze::IsIdentChar(toks[j].text[0])) {
            ev.captures.push_back(toks[j].text);
          }
        }
        events.push_back(ev);
        k = j - 1;
        continue;
      }
      continue;
    }

    if (!IsIdentChar(t[0]) || std::isdigit(static_cast<unsigned char>(t[0]))) {
      continue;
    }

    // `spc::MutexLock var(expr);` (optionally pspc::-qualified).
    if (t == "MutexLock" && text(k + 1) != "(" && text(k + 1) != ";" &&
        IsIdentChar(text(k + 1).empty() ? '(' : text(k + 1)[0])) {
      const std::string var = text(k + 1);
      if (text(k + 2) == "(") {
        std::string expr;
        size_t j = k + 3;
        int depth = 1;
        for (; j < fn.body_end && depth > 0; ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (depth > 0) expr += toks[j].text;
        }
        const std::string canonical =
            CanonicalMutex(model, *syms, fn.cls, expr);
        syms->Declare(var, "MutexLock");
        events.push_back({BodyEvent::kAcquire, toks[k].line, canonical, var,
                          "", "", false, false, "", {}});
        k = j - 1;
        continue;
      }
    }

    // Receiver chains: `recv . Name (` / `recv -> Name (` /
    // `Class :: Name (` / bare `Name (`.
    const std::string& next = text(k + 1);
    if ((next == "." || next == "->" || next == "::") &&
        IsIdentChar(text(k + 2).empty() ? '(' : text(k + 2)[0]) &&
        text(k + 3) == "(") {
      const std::string& receiver = t;
      const std::string& callee = text(k + 2);

      if (callee == "Lock" || callee == "Unlock") {
        // MutexLock variable or direct mutex member.
        const std::string recv_type = syms->TypeOf(receiver);
        std::string canonical;
        std::string lock_var;
        if (recv_type == "MutexLock") {
          lock_var = receiver;
        } else {
          canonical = CanonicalMutex(model, *syms, fn.cls, receiver);
        }
        if (!lock_var.empty() || !canonical.empty()) {
          const BodyEvent::Kind kind =
              callee == "Unlock"
                  ? BodyEvent::kRelease
                  : (lock_var.empty() ? BodyEvent::kAcquire
                                      : BodyEvent::kReacquire);
          events.push_back({kind, toks[k].line, canonical, lock_var, "", "",
                            false, false, "", {}});
        }
        k += 3;
        continue;
      }

      BodyEvent ev{BodyEvent::kCall, toks[k].line, "", "", callee, "", false,
                   true, "", {}};
      if (next == "::") {
        ev.receiver_type = receiver;
        ev.receiver_typed = true;
      } else {
        const std::string recv_type = syms->TypeOf(receiver);
        if (!recv_type.empty()) {
          ev.receiver_type = recv_type;
          ev.receiver_typed = true;
        }
      }
      events.push_back(ev);
      k += 2;  // continue scanning inside the argument list
      continue;
    }

    // Bare call `Name (`.
    if (next == "(" && !detail::IsControlKeyword(t)) {
      const std::string& prev = k > fn.body_begin ? toks[k - 1].text : "{";
      if (prev != "." && prev != "->" && prev != "::") {
        events.push_back({BodyEvent::kCall, toks[k].line, "", "", t, "",
                          false, false, "", {}});
      }
      continue;
    }

    // Local declarations (for receiver typing and pin tracking):
    //   [ns ::]* Type [< args >] [&|*|const]* name ( = | { | ; | : )
    {
      const std::string& prev = k > fn.body_begin ? toks[k - 1].text : "{";
      const bool decl_pos = prev == ";" || prev == "{" || prev == "}" ||
                            prev == "(" || prev == "const";
      if (!decl_pos) continue;
      // Walk the qualified chain to the final type identifier.
      size_t p = k;
      while (text(p + 1) == "::" && !text(p + 2).empty() &&
             IsIdentChar(text(p + 2)[0])) {
        p += 2;
      }
      // Template argument list (abort if this `<` is a comparison).
      std::string tmpl_args;
      size_t after_type = p + 1;
      if (text(p + 1) == "<") {
        size_t j = p + 2;
        int depth = 1;
        bool closed = false;
        for (; j < fn.body_end; ++j) {
          const std::string& tj = toks[j].text;
          if (tj == ";" || tj == "{" || tj == ")") break;
          if (tj == "<") ++depth;
          if (tj == ">") {
            --depth;
            if (depth == 0) {
              closed = true;
              break;
            }
          }
          if (IsIdentChar(tj[0])) tmpl_args += tj + " ";
        }
        if (!closed) continue;
        after_type = j + 1;
      }
      size_t name_idx = after_type;
      while (name_idx < fn.body_end &&
             (toks[name_idx].text == "&" || toks[name_idx].text == "*" ||
              toks[name_idx].text == "const")) {
        ++name_idx;
      }
      if (name_idx < fn.body_end && name_idx != k &&
          IsIdentChar(text(name_idx)[0]) &&
          !std::isdigit(static_cast<unsigned char>(text(name_idx)[0]))) {
        const std::string& after = text(name_idx + 1);
        if (after == "=" || after == ";" || after == "{" || after == ":") {
          const std::string& type = toks[p].text;
          const std::string& var = text(name_idx);
          if (type != "return" && !detail::IsControlKeyword(type)) {
            std::string resolved_type = type;
            if (type == "auto" && after == "=") {
              // `auto x = recv.Acquire()` and friends: adopt the
              // resolved callee's return type.
              const size_t e = name_idx + 2;
              if (IsIdentChar(text(e)[0]) &&
                  (text(e + 1) == "." || text(e + 1) == "->") &&
                  text(e + 3) == "(") {
                const std::string recv_type = syms->TypeOf(text(e));
                const FunctionModel* callee =
                    recv_type.empty()
                        ? nullptr
                        : syms->Resolve(recv_type, text(e + 2));
                if (callee != nullptr) resolved_type = callee->return_type;
              }
            }
            if (resolved_type != "auto") syms->Declare(var, resolved_type);
            if (model.pin_types.count(resolved_type) != 0) {
              events.push_back({BodyEvent::kPinLocal, toks[k].line, "", "",
                                "", "", false, false, var, {}});
            }
            // Container whose template args mention a pin type.
            for (const std::string& pin : model.pin_types) {
              if (tmpl_args.find(pin) != std::string::npos) {
                events.push_back({BodyEvent::kPinContainer, toks[k].line, "",
                                  "", "", "", false, false, var, {}});
                break;
              }
            }
          }
        }
      }
    }
  }
  return events;
}

// --------------------------------------------------------- lock summaries

struct LockEdge {
  std::string from, to;
  std::string file;
  size_t line = 0;  // 0-based
};

/// Fixpoint over the call graph: canonical mutexes each function may
/// acquire, directly or through resolved calls.
inline std::map<const FunctionModel*, std::set<std::string>>
ComputeAcquireSummaries(const Model& model) {
  std::map<const FunctionModel*, std::set<std::string>> summary;
  struct Site {
    const FunctionModel* fn;
    std::vector<BodyEvent> events;
    SymbolTable syms;
  };
  std::vector<Site> sites;
  for (const FileModel& file : model.files) {
    for (const FunctionModel& fn : file.functions) {
      if (fn.body_end <= fn.body_begin) continue;
      SymbolTable syms(model, fn);
      std::vector<BodyEvent> events = ScanBody(model, file, fn, &syms);
      sites.push_back({&fn, std::move(events), std::move(syms)});
    }
  }
  for (const Site& s : sites) {
    std::set<std::string>& acq = summary[s.fn];
    for (const BodyEvent& ev : s.events) {
      if (ev.kind == BodyEvent::kAcquire && !ev.mutex_name.empty()) {
        acq.insert(ev.mutex_name);
      }
    }
    // ACQUIRE annotations resolvable in the function's own class.
    SymbolTable syms(model, *s.fn);
    for (const std::string& arg : s.fn->acquire_args) {
      const std::string canonical =
          CanonicalMutex(model, syms, s.fn->cls, arg);
      if (!canonical.empty()) acq.insert(canonical);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Site& s : sites) {
      std::set<std::string>& acq = summary[s.fn];
      for (const BodyEvent& ev : s.events) {
        if (ev.kind != BodyEvent::kCall) continue;
        const FunctionModel* callee =
            ev.receiver_typed ? s.syms.Resolve(ev.receiver_type, ev.callee)
            : !ev.receiver_present ? s.syms.ResolveBare(s.fn->cls, ev.callee)
                                   : nullptr;
        if (callee == nullptr || callee == s.fn) continue;
        const auto it = summary.find(callee);
        if (it == summary.end()) continue;
        for (const std::string& m : it->second) {
          if (acq.insert(m).second) changed = true;
        }
      }
    }
  }
  return summary;
}

// ---------------------------------------------------------------- passes

struct AnalyzeOptions {
  std::vector<std::string> lock_hierarchy;         // outermost first
  std::vector<std::vector<std::string>> layers;    // bottom-up dir groups
  /// Require every src/ class-member spc::Mutex to appear in the
  /// hierarchy (off for corpus mini-trees that test other passes).
  bool check_lock_registration = true;
};

/// Pass 1: lock-order. Emits the observed acquisition edges through
/// `edges` (for the JSON report) alongside any violations.
inline void LockOrderPass(const Model& model, const AnalyzeOptions& options,
                          std::vector<Violation>* violations,
                          std::vector<LockEdge>* edges) {
  const auto summaries = ComputeAcquireSummaries(model);

  // Observed edges: held -> acquired, with a representative site each.
  std::map<std::string, std::map<std::string, std::pair<std::string, size_t>>>
      graph;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const std::string& file, size_t line) {
    if (from.empty() || to.empty() || from == to) {
      if (from == to && !from.empty()) {
        // Self-acquisition: immediate self-deadlock on a
        // non-reentrant mutex.
        violations->push_back(
            {file, line + 1, "lock-cycle",
             "acquires '" + from + "' while already holding it (std::mutex "
             "is non-reentrant: guaranteed self-deadlock)"});
      }
      return;
    }
    graph[from].emplace(to, std::make_pair(file, line));
  };

  for (const FileModel& file : model.files) {
    for (const FunctionModel& fn : file.functions) {
      if (fn.body_end <= fn.body_begin) continue;
      SymbolTable syms(model, fn);
      const std::vector<BodyEvent> events = ScanBody(model, file, fn, &syms);

      // Held set: REQUIRES locks for the whole body + active scopes.
      std::set<std::string> required;
      for (const std::string& arg : fn.requires_args) {
        const std::string canonical = CanonicalMutex(model, syms, fn.cls, arg);
        if (!canonical.empty()) required.insert(canonical);
      }
      struct Held {
        std::string mutex;
        std::string var;  // "" = direct Lock()
        int depth;
        bool active;
      };
      std::vector<Held> held;
      int depth = 0;
      const auto held_now = [&]() {
        std::set<std::string> out = required;
        for (const Held& h : held) {
          if (h.active && !h.mutex.empty()) out.insert(h.mutex);
        }
        return out;
      };

      for (const BodyEvent& ev : events) {
        switch (ev.kind) {
          case BodyEvent::kScopeOpen:
            ++depth;
            break;
          case BodyEvent::kScopeClose:
            while (!held.empty() && held.back().depth >= depth) {
              held.pop_back();
            }
            --depth;
            break;
          case BodyEvent::kAcquire: {
            if (required.count(ev.mutex_name) != 0 && !ev.mutex_name.empty()) {
              // Dedicated diagnostic; skip the generic self-edge.
              violations->push_back(
                  {file.path, ev.line + 1, "lock-cycle",
                   "acquires '" + ev.mutex_name +
                       "' which REQUIRES already declares held (guaranteed "
                       "self-deadlock)"});
            } else {
              for (const std::string& h : held_now()) {
                add_edge(h, ev.mutex_name, file.path, ev.line);
              }
            }
            held.push_back({ev.mutex_name, ev.lock_var, depth, true});
            break;
          }
          case BodyEvent::kRelease:
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
              if ((!ev.lock_var.empty() && it->var == ev.lock_var) ||
                  (ev.lock_var.empty() && it->mutex == ev.mutex_name)) {
                it->active = false;
                break;
              }
            }
            break;
          case BodyEvent::kReacquire:
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
              if (it->var == ev.lock_var) {
                for (const std::string& h : held_now()) {
                  add_edge(h, it->mutex, file.path, ev.line);
                }
                it->active = true;
                break;
              }
            }
            break;
          case BodyEvent::kCall: {
            const FunctionModel* callee =
                ev.receiver_typed ? syms.Resolve(ev.receiver_type, ev.callee)
                : !ev.receiver_present
                    ? syms.ResolveBare(fn.cls, ev.callee)
                    : nullptr;
            if (callee == nullptr) break;
            const auto it = summaries.find(callee);
            if (it == summaries.end() || it->second.empty()) break;
            const std::set<std::string> held_set = held_now();
            if (held_set.empty()) break;
            // Locks the callee REQUIRES are held by contract, not
            // acquired inside it.
            SymbolTable callee_syms(model, *callee);
            std::set<std::string> callee_required;
            for (const std::string& arg : callee->requires_args) {
              const std::string canonical =
                  CanonicalMutex(model, callee_syms, callee->cls, arg);
              if (!canonical.empty()) callee_required.insert(canonical);
            }
            for (const std::string& acquired : it->second) {
              if (callee_required.count(acquired) != 0) continue;
              for (const std::string& h : held_set) {
                add_edge(h, acquired, file.path, ev.line);
              }
            }
            break;
          }
          default:
            break;
        }
      }
    }
  }

  for (const auto& [from, tos] : graph) {
    for (const auto& [to, site] : tos) {
      edges->push_back({from, to, site.first, site.second});
    }
  }

  // Cycle detection: DFS from each node in sorted order; report a cycle
  // only from its lexicographically smallest member so each prints once.
  std::vector<std::string> nodes;
  for (const auto& [from, tos] : graph) {
    nodes.push_back(from);
    for (const auto& [to, site] : tos) nodes.push_back(to);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::set<std::vector<std::string>> reported;
  for (const std::string& start : nodes) {
    // Iterative DFS tracking the path; find a cycle back to `start`.
    std::vector<std::pair<std::string, size_t>> stack;  // node, next index
    std::vector<std::string> path;
    std::set<std::string> on_path, done;
    stack.emplace_back(start, 0);
    path.push_back(start);
    on_path.insert(start);
    std::vector<std::string> cycle;
    while (!stack.empty() && cycle.empty()) {
      auto& [node, next] = stack.back();
      const auto git = graph.find(node);
      std::vector<std::string> succs;
      if (git != graph.end()) {
        for (const auto& [to, site] : git->second) succs.push_back(to);
      }
      if (next >= succs.size()) {
        on_path.erase(node);
        done.insert(node);
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string succ = succs[next++];
      if (succ == start) {
        cycle = path;  // path from start back to start
        break;
      }
      if (on_path.count(succ) != 0 || done.count(succ) != 0 || succ < start) {
        continue;  // inner cycles reported from their own smallest node
      }
      stack.emplace_back(succ, 0);
      path.push_back(succ);
      on_path.insert(succ);
    }
    if (cycle.empty()) continue;
    if (!reported.insert(cycle).second) continue;
    std::ostringstream msg;
    msg << "potential deadlock: lock-order cycle ";
    for (const std::string& n : cycle) msg << n << " -> ";
    msg << cycle.front() << " (";
    std::string site_file;
    size_t site_line = 0;
    for (size_t i = 0; i < cycle.size(); ++i) {
      const std::string& from = cycle[i];
      const std::string& to = cycle[(i + 1) % cycle.size()];
      const auto& site = graph.at(from).at(to);
      if (i == 0) {
        site_file = site.first;
        site_line = site.second;
      } else {
        msg << "; ";
      }
      msg << from << "->" << to << " at " << site.first << ":"
          << site.second + 1;
    }
    msg << ")";
    violations->push_back({site_file, site_line + 1, "lock-cycle", msg.str()});
  }

  // Declared hierarchy: an edge from a lower-ranked lock into a
  // higher-ranked one inverts the declared acquisition order.
  std::map<std::string, size_t> rank;
  for (size_t i = 0; i < options.lock_hierarchy.size(); ++i) {
    rank[options.lock_hierarchy[i]] = i;
  }
  for (const auto& [from, tos] : graph) {
    const auto rf = rank.find(from);
    if (rf == rank.end()) continue;
    for (const auto& [to, site] : tos) {
      const auto rt = rank.find(to);
      if (rt == rank.end()) continue;
      if (rt->second < rf->second) {
        violations->push_back(
            {site.first, site.second + 1, "lock-hierarchy",
             "acquires '" + to + "' while holding '" + from +
                 "', inverting the declared order in "
                 "tools/lock_hierarchy.txt ('" +
                 to + "' is outer)"});
      }
    }
  }

  // Registration: every src/ class-member spc::Mutex must be declared.
  if (options.check_lock_registration) {
    for (const FileModel& file : model.files) {
      if (file.path.rfind("src/", 0) != 0) continue;
      for (const ClassModel& cls : file.classes) {
        // RAII capability wrappers (MutexLock and friends) hold a
        // reference to a mutex, they are not a lock of their own.
        if (cls.scoped_capability || model.pin_types.count(cls.name) != 0) {
          continue;
        }
        for (const Member& m : cls.members) {
          if (!m.is_mutex) continue;
          const std::string canonical = cls.name + "::" + m.name;
          if (rank.count(canonical) == 0) {
            violations->push_back(
                {file.path, m.line + 1, "lock-unregistered",
                 "mutex '" + canonical +
                     "' is not declared in tools/lock_hierarchy.txt (add it "
                     "at its acquisition-order position)"});
          }
        }
      }
    }
  }
}

/// Pass 2: epoch-pin escape analysis.
inline void PinEscapePass(const Model& model,
                          std::vector<Violation>* violations) {
  // Member / member-container escapes: a pin stored in a class outlives
  // any acquiring scope unless the class explicitly releases it.
  for (const FileModel& file : model.files) {
    for (const ClassModel& cls : file.classes) {
      if (model.pin_types.count(cls.name) != 0) continue;  // RAII wrappers
      for (const Member& m : cls.members) {
        std::string pin_hit;
        for (const std::string& pin : model.pin_types) {
          // Token-boundary match inside the whitespace-joined type.
          const std::string padded = " " + m.type + " ";
          if (padded.find(" " + pin + " ") != std::string::npos) {
            pin_hit = pin;
            break;
          }
        }
        if (pin_hit.empty()) continue;
        // Explicit release anywhere in the class's functions pardons
        // it; member function bodies may live in another file.
        bool released = false;
        for (const FileModel& defs : model.files) {
          for (const FunctionModel& fn : defs.functions) {
            if (fn.cls != cls.name || fn.body_end <= fn.body_begin) continue;
            for (size_t k = fn.body_begin; k + 2 < fn.body_end; ++k) {
              if (defs.tokens[k].text == m.name &&
                  (defs.tokens[k + 1].text == "." ||
                   defs.tokens[k + 1].text == "->") &&
                  (defs.tokens[k + 2].text == "Release" ||
                   defs.tokens[k + 2].text == "Unlock")) {
                released = true;
                break;
              }
            }
            if (released) break;
          }
          if (released) break;
        }
        if (released) continue;
        const bool container = m.type.find(pin_hit) != std::string::npos &&
                               TypeTail(m.type) != pin_hit;
        violations->push_back(
            {file.path, m.line + 1, "pin-escape",
             std::string("member '") + m.name + "' stores a " + pin_hit +
                 (container ? " in a container" : "") +
                 " beyond its acquiring scope without an explicit Release() "
                 "— a held pin stalls epoch reclamation for every later "
                 "generation"});
      }
    }
  }

  // Local containers of pins and lambda captures of pin locals.
  for (const FileModel& file : model.files) {
    for (const FunctionModel& fn : file.functions) {
      if (fn.body_end <= fn.body_begin) continue;
      SymbolTable syms(model, fn);
      const std::vector<BodyEvent> events = ScanBody(model, file, fn, &syms);
      std::set<std::string> pin_locals;
      for (const BodyEvent& ev : events) {
        if (ev.kind == BodyEvent::kPinLocal) pin_locals.insert(ev.var);
        if (ev.kind == BodyEvent::kPinContainer) {
          violations->push_back(
              {file.path, ev.line + 1, "pin-escape",
               "local '" + ev.var +
                   "' is a container of epoch pins; pins held in bulk "
                   "outlive the micro-batch scope the epoch design assumes "
                   "(hold one SnapshotRef per batch instead)"});
        }
        if (ev.kind == BodyEvent::kLambda) {
          for (const std::string& cap : ev.captures) {
            if (pin_locals.count(cap) != 0) {
              violations->push_back(
                  {file.path, ev.line + 1, "pin-escape",
                   "lambda captures epoch pin '" + cap +
                       "'; the capture can outlive the acquiring scope "
                       "without an explicit Release()"});
              break;
            }
          }
        }
      }
    }
  }
}

/// Pass 3: layering over the #include graph.
inline void LayeringPass(const Model& model, const AnalyzeOptions& options,
                         std::vector<Violation>* violations) {
  std::map<std::string, size_t> level;  // dir prefix -> layer index
  for (size_t i = 0; i < options.layers.size(); ++i) {
    for (const std::string& dir : options.layers[i]) level[dir] = i;
  }
  const auto dir_of = [](const std::string& path) -> std::string {
    // "src/common/x.h" -> "src/common"; "tools/x.cc" -> "tools".
    const size_t first = path.find('/');
    if (first == std::string::npos) return path;
    if (path.compare(0, 4, "src/") == 0) {
      const size_t second = path.find('/', first + 1);
      return second == std::string::npos ? path : path.substr(0, second);
    }
    return path.substr(0, first);
  };
  const auto layer_name = [&](size_t idx) {
    std::string out;
    for (const std::string& dir : options.layers[idx]) {
      if (!out.empty()) out += "/";
      out += dir;
    }
    return out;
  };
  for (const FileModel& file : model.files) {
    const std::string from_dir = dir_of(file.path);
    const auto from_it = level.find(from_dir);
    if (from_it == level.end()) {
      violations->push_back(
          {file.path, 1, "layer-unknown",
           "directory '" + from_dir +
               "' is not declared in tools/layer_dag.txt — add it to a "
               "layer before adding code there"});
      continue;
    }
    for (const IncludeEdge& inc : file.includes) {
      // Only repo-internal quoted includes participate.
      if (inc.target.find('/') == std::string::npos) continue;
      const std::string to_dir = dir_of(inc.target);
      const auto to_it = level.find(to_dir);
      if (to_it == level.end()) {
        if (inc.target.rfind("src/", 0) == 0) {
          violations->push_back(
              {file.path, inc.line + 1, "layer-unknown",
               "include of '" + inc.target + "': directory '" + to_dir +
                   "' is not declared in tools/layer_dag.txt"});
        }
        continue;
      }
      if (to_it->second > from_it->second) {
        violations->push_back(
            {file.path, inc.line + 1, "layer-back-edge",
             "'" + from_dir + "' (layer " + layer_name(from_it->second) +
                 ") may not include '" + inc.target + "' (layer " +
                 layer_name(to_it->second) +
                 "): back-edge in the declared layer DAG"});
      }
    }
  }
}

// ---------------------------------------------------------------- driver

struct AnalyzeResult {
  std::vector<Violation> violations;
  std::vector<LockEdge> lock_edges;  // observed acquisition-order graph
};

inline AnalyzeResult Analyze(const Model& model,
                             const AnalyzeOptions& options) {
  AnalyzeResult result;
  LockOrderPass(model, options, &result.violations, &result.lock_edges);
  PinEscapePass(model, &result.violations);
  LayeringPass(model, options, &result.violations);
  std::sort(result.violations.begin(), result.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return result;
}

/// Parses tools/lock_hierarchy.txt: one canonical lock name per line,
/// `#` comments and blank lines ignored, outermost lock first.
inline std::vector<std::string> ParseLockHierarchy(
    const std::string& content) {
  std::vector<std::string> out;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = line.find_last_not_of(" \t\r");
    out.push_back(line.substr(b, e - b + 1));
  }
  return out;
}

/// Parses tools/layer_dag.txt: `layer <dir> [<dir>...]` lines, one per
/// level, bottom-up; `#` comments and blank lines ignored.
inline std::vector<std::vector<std::string>> ParseLayerDag(
    const std::string& content) {
  std::vector<std::vector<std::string>> out;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word) || word != "layer") continue;
    std::vector<std::string> dirs;
    while (fields >> word) dirs.push_back(word);
    if (!dirs.empty()) out.push_back(dirs);
  }
  return out;
}

/// Collects the analyzable sources under `root` (same sweep as
/// spc_lint: src/, tools/, examples/, bench/), builds the model, loads
/// the two config files, and runs all passes. On config/IO failure
/// `*error` is set and the (empty) result returned.
inline AnalyzeResult AnalyzeTree(const std::filesystem::path& root,
                                 std::string* error) {
  AnalyzeResult empty;
  error->clear();

  AnalyzeOptions options;
  {
    std::string content;
    if (!ReadFile(root / "tools/lock_hierarchy.txt", &content)) {
      *error = "cannot read tools/lock_hierarchy.txt under " + root.string();
      return empty;
    }
    options.lock_hierarchy = ParseLockHierarchy(content);
    if (!ReadFile(root / "tools/layer_dag.txt", &content)) {
      *error = "cannot read tools/layer_dag.txt under " + root.string();
      return empty;
    }
    options.layers = ParseLayerDag(content);
    if (options.layers.empty()) {
      *error = "no `layer` lines parsed from tools/layer_dag.txt";
      return empty;
    }
  }

  static constexpr std::string_view kScannedDirs[] = {"src", "tools",
                                                      "examples", "bench"};
  std::vector<std::filesystem::path> paths;
  for (const std::string_view dir : kScannedDirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::is_directory(base)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<std::pair<std::string, std::string>> path_contents;
  for (const std::filesystem::path& path : paths) {
    std::string content;
    if (!ReadFile(path, &content)) {
      *error = "cannot read " + path.string();
      return empty;
    }
    path_contents.emplace_back(
        std::filesystem::relative(path, root).generic_string(),
        std::move(content));
  }

  const Model model = BuildModel(path_contents);
  return Analyze(model, options);
}

/// Machine-readable report for the CI failure artifact.
inline std::string ReportJson(const AnalyzeResult& result) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::ostringstream out;
  out << "{\"schema_version\":1,\"tool\":\"spc_analyze\",\"violations\":[";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    const Violation& v = result.violations[i];
    if (i != 0) out << ",";
    out << "{\"file\":\"" << escape(v.file) << "\",\"line\":" << v.line
        << ",\"rule\":\"" << escape(v.rule) << "\",\"message\":\""
        << escape(v.message) << "\"}";
  }
  out << "],\"lock_graph\":{\"edges\":[";
  for (size_t i = 0; i < result.lock_edges.size(); ++i) {
    const LockEdge& e = result.lock_edges[i];
    if (i != 0) out << ",";
    out << "{\"from\":\"" << escape(e.from) << "\",\"to\":\"" << escape(e.to)
        << "\",\"file\":\"" << escape(e.file) << "\",\"line\":" << e.line + 1
        << "}";
  }
  out << "]}}\n";
  return out.str();
}

}  // namespace spcanalyze

#endif  // PSPC_TOOLS_ANALYZE_PASSES_H_
