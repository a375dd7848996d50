#include "lint/linter.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "lint/lexer.h"

namespace radar::lint {
namespace {

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

using Code = std::vector<const Token*>;

bool IsIdent(const Code& c, std::size_t i, std::string_view text) {
  return i < c.size() && c[i]->kind == TokKind::kIdentifier &&
         c[i]->text == text;
}

bool IsPunct(const Code& c, std::size_t i, std::string_view text) {
  return i < c.size() && c[i]->kind == TokKind::kPunct && c[i]->text == text;
}

/// True when code[i..i+2] spell `std::name`.
bool SeqStd(const Code& c, std::size_t i, std::string_view name) {
  return IsIdent(c, i, "std") && IsPunct(c, i + 1, "::") &&
         IsIdent(c, i + 2, name);
}

bool AnyOf(std::string_view text,
           std::initializer_list<std::string_view> names) {
  for (const std::string_view n : names) {
    if (text == n) return true;
  }
  return false;
}

struct Ctx {
  const std::string& path;
  const FileKind& kind;
  const std::vector<GlobalWhitelistEntry>& whitelist;
  Analysis* out;

  void Violate(int line, const char* rule, std::string message) const {
    out->violations.push_back({path, line, rule, std::move(message)});
  }
};

// ---------------------------------------------------------------------
// Protocol-constant matching (PAPER.md Table 1 / Sec. 4.2). The constants
// appear below only inside string literals, so the analyzer stays clean
// under its own protocol-literal pass when it lints tools/.
// ---------------------------------------------------------------------

/// "0.6", "0.60", "0.600f" — `head` plus trailing zeros plus an optional
/// float suffix.
bool IsDecimalConstant(std::string_view norm, std::string_view head) {
  if (norm.substr(0, head.size()) != head) return false;
  std::string_view rest = norm.substr(head.size());
  while (!rest.empty() && rest.front() == '0') rest.remove_prefix(1);
  if (!rest.empty() && AnyOf(rest, {"f", "F", "l", "L"})) rest = {};
  return rest.empty();
}

/// "1", "1.0", "1.00" (the numerator shape of the 1/6 repl_ratio).
bool IsIntegerValued(std::string_view norm, char digit) {
  if (norm.empty() || norm.front() != digit) return false;
  std::string_view rest = norm.substr(1);
  if (rest.empty()) return true;
  if (rest.front() != '.') return false;
  rest.remove_prefix(1);
  if (rest.empty()) return false;
  while (!rest.empty() && rest.front() == '0') rest.remove_prefix(1);
  return rest.empty();
}

bool IsProtocolConstant(std::string_view norm) {
  if (norm == "6u" || norm == "6U") return true;
  return IsDecimalConstant(norm, "0.6") || IsDecimalConstant(norm, "0.03") ||
         IsDecimalConstant(norm, "0.18");
}

// ---------------------------------------------------------------------
// Header hygiene: #pragma once, `using namespace`
// ---------------------------------------------------------------------

void PassHeaderHygiene(const Ctx& ctx, const Code& code) {
  if (!ctx.kind.is_header) return;
  bool has_pragma_once = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i]->directive == "pragma" && IsIdent(code, i, "once")) {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    ctx.Violate(1, "missing-pragma-once",
                "every header must contain #pragma once");
  }
}

// ---------------------------------------------------------------------
// Banned constructs, confinement rules, protocol literals, wall clocks —
// one linear scan; each check is a short token-sequence match.
// ---------------------------------------------------------------------

void PassBannedTokens(const Ctx& ctx, const Code& code) {
  const FileKind& kind = ctx.kind;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = *code[i];
    if (t.directive == "include") continue;  // a header name is not a use
    const int line = t.line;

    if (t.kind == TokKind::kIdentifier) {
      const bool call = IsPunct(code, i + 1, "(");
      if (call && (t.text == "rand" || t.text == "srand")) {
        ctx.Violate(line, "banned-rand",
                    "rand()/srand() is banned; use radar::Rng "
                    "(common/rng.h) so runs stay reproducible");
      }
      if (call && t.text == "assert") {
        ctx.Violate(line, "banned-assert",
                    "raw assert() is banned; use RADAR_CHECK "
                    "(common/check.h), which is on in every build type");
      }
      if (!kind.allow_cli_output &&
          (t.text == "cout" || t.text == "cerr")) {
        ctx.Violate(line, "banned-iostream",
                    "std::cout/std::cerr is banned in library code; use "
                    "RADAR_LOG (common/log.h)");
      }
      if (kind.is_header && t.text == "using" &&
          IsIdent(code, i + 1, "namespace")) {
        ctx.Violate(line, "using-namespace-in-header",
                    "`using namespace` in a header leaks into every "
                    "includer; qualify names instead");
      }
      if (!kind.allow_threads) {
        if (t.text == "std" &&
            (SeqStd(code, i, "thread") || SeqStd(code, i, "jthread") ||
             SeqStd(code, i, "async") || SeqStd(code, i, "future") ||
             SeqStd(code, i, "promise"))) {
          ctx.Violate(line, "thread-confinement",
                      "thread creation and deferred-concurrency handles "
                      "(std::thread/jthread/async/future/promise) are "
                      "confined to src/runner/; run concurrent work through "
                      "runner::ThreadPool so the rest of the tree stays "
                      "single-threaded");
        }
        if (call && t.text == "detach") {
          ctx.Violate(line, "thread-confinement",
                      "thread creation/detach is confined to src/runner/; "
                      "run concurrent work through runner::ThreadPool so "
                      "the rest of the tree stays single-threaded");
        }
        if (t.directive == "pragma" && t.text == "omp") {
          ctx.Violate(line, "thread-confinement",
                      "#pragma omp spawns threads behind the experiment "
                      "engine's back; concurrency is confined to "
                      "src/runner/");
        }
      }
      if (kind.forbid_std_function && t.text == "std" &&
          SeqStd(code, i, "function")) {
        ctx.Violate(line, "sim-no-std-function",
                    "std::function heap-allocates per capture; simulation "
                    "event code schedules millions of closures per run and "
                    "must use sim::InplaceFunction (sim/inplace_function.h)");
      }
      if (kind.forbid_std_function && t.text == "std" &&
          (SeqStd(code, i, "mutex") || SeqStd(code, i, "shared_mutex") ||
           SeqStd(code, i, "recursive_mutex") ||
           SeqStd(code, i, "timed_mutex") ||
           SeqStd(code, i, "condition_variable") ||
           SeqStd(code, i, "condition_variable_any") ||
           SeqStd(code, i, "atomic") || SeqStd(code, i, "atomic_flag") ||
           SeqStd(code, i, "lock_guard") || SeqStd(code, i, "unique_lock") ||
           SeqStd(code, i, "scoped_lock") || SeqStd(code, i, "shared_lock") ||
           SeqStd(code, i, "call_once") || SeqStd(code, i, "once_flag"))) {
        ctx.Violate(line, "shard-confinement",
                    "synchronization primitives are banned in src/sim/; a "
                    "simulation's state is owned by the one thread that "
                    "runs it, and concurrency lives in src/runner/ as whole "
                    "runs on runner::ThreadPool (DESIGN.md section 14)");
      }
      if (!kind.allow_fault_injection &&
          AnyOf(t.text, {"mtbf", "mttr", "mtbf_s", "mttr_s", "drop_prob",
                         "request_delay_prob"})) {
        ctx.Violate(line, "fault-confinement",
                    "fault-model parameters (MTBF/MTTR, message "
                    "drop/delay probabilities) are confined to src/fault/; "
                    "pass a fault::FaultPlan instead of spelling rates "
                    "elsewhere");
      }
      if (kind.forbid_net_rng &&
          (t.text == "Rng" || t.text == "SplitMix64")) {
        ctx.Violate(line, "net-rng-confinement",
                    "random number generation in src/net/ is confined to "
                    "net/topology_gen.cpp; routing and latency oracles must "
                    "be pure functions of the graph so generated topologies "
                    "replay bit-identically from (spec, seed)");
      }
      if (kind.forbid_hash_maps && t.text == "std" &&
          (SeqStd(code, i, "unordered_map") || SeqStd(code, i, "map"))) {
        ctx.Violate(line, "core-no-hash-maps",
                    "node-based maps are banned in src/core/ (a cache miss "
                    "per probe on the request hot path); use radar::SlabMap "
                    "(common/slab_map.h) for dense ObjectId keys or a "
                    "sorted inline vector for tiny replica sets");
      }
      if (!kind.allow_transport_syscalls && call &&
          AnyOf(t.text,
                {"socket",      "bind",          "listen",     "accept",
                 "accept4",     "connect",       "poll",       "ppoll",
                 "select",      "epoll_create",  "epoll_create1",
                 "epoll_ctl",   "epoll_wait",    "fcntl",      "setsockopt",
                 "getsockopt",  "send",          "recv",       "sendto",
                 "recvfrom",    "sendmsg",       "recvmsg",    "shutdown",
                 "getaddrinfo", "fsync",         "ftruncate",  "ioctl"})) {
        ctx.Violate(line, "transport-confinement",
                    "socket/poll/fcntl-family syscalls are confined to "
                    "src/transport/ and src/binlog/; everything else talks "
                    "through the Transport seam (transport/transport.h) so "
                    "protocol brains stay shared between the simulator and "
                    "the daemons (DESIGN.md section 16)");
      }
      if (!kind.allow_wall_clock) {
        if (AnyOf(t.text,
                  {"system_clock", "steady_clock", "high_resolution_clock"})) {
          ctx.Violate(line, "nondet-wall-clock",
                      "wall-clock reads make paired runs diverge; take time "
                      "from the simulation clock (sim::Simulator::Now), or "
                      "move timing code into src/runner/ or bench/");
        }
        if (call && AnyOf(t.text, {"time", "clock", "gettimeofday",
                                   "clock_gettime", "localtime", "gmtime",
                                   "mktime"})) {
          ctx.Violate(line, "nondet-wall-clock",
                      "C wall-clock calls make paired runs diverge; take "
                      "time from the simulation clock, or move timing code "
                      "into src/runner/ or bench/");
        }
      }
    } else if (t.kind == TokKind::kNumber) {
      if (!kind.allow_protocol_literals) {
        const std::string norm = NormalizeNumber(t.text);
        bool hit = IsProtocolConstant(norm);
        if (!hit && IsIntegerValued(norm, '1') && IsPunct(code, i + 1, "/") &&
            i + 2 < code.size() && code[i + 2]->kind == TokKind::kNumber &&
            IsIntegerValued(NormalizeNumber(code[i + 2]->text), '6')) {
          hit = true;
        }
        if (hit) {
          ctx.Violate(line, "protocol-literal",
                      "hard-coded protocol threshold (0.6 / 1/6 / 6u / "
                      "0.03 / 0.18); take it from core::ProtocolParams "
                      "(core/params.h) instead");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Nondeterminism audit: unordered-container traversal, pointer-keyed
// ordered containers, std::hash over pointers.
// ---------------------------------------------------------------------

/// With code[open] == "<", returns the index just past the matching ">"
/// (or code.size() if unbalanced).
std::size_t SkipAngles(const Code& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code, i, "<")) ++depth;
    if (IsPunct(code, i, ">")) {
      if (--depth == 0) return i + 1;
    }
    if (IsPunct(code, i, ";")) break;  // statement ended: give up
  }
  return code.size();
}

void PassNondeterminism(const Ctx& ctx, const Code& code) {
  // Names declared (anywhere in this file) with an unordered type. This is
  // a file-local heuristic, not type inference: it sees members, locals,
  // and reference parameters, which covers the way the tree declares them.
  std::vector<std::string> unordered_names;
  const auto is_unordered_name = [&](const Token& t) {
    return t.kind == TokKind::kIdentifier &&
           std::find(unordered_names.begin(), unordered_names.end(),
                     t.text) != unordered_names.end();
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (SeqStd(code, i, "unordered_map") || SeqStd(code, i, "unordered_set") ||
        SeqStd(code, i, "unordered_multimap") ||
        SeqStd(code, i, "unordered_multiset")) {
      std::size_t j = i + 3;
      if (IsPunct(code, j, "<")) j = SkipAngles(code, j);
      while (j < code.size() &&
             (IsPunct(code, j, "&") || IsPunct(code, j, "*") ||
              IsIdent(code, j, "const"))) {
        ++j;
      }
      if (j < code.size() && code[j]->kind == TokKind::kIdentifier) {
        unordered_names.push_back(code[j]->text);
      }
      continue;
    }

    // Pointer-keyed ordered containers: iteration order is the address
    // order, which ASLR reshuffles every run.
    if (SeqStd(code, i, "map") || SeqStd(code, i, "set") ||
        SeqStd(code, i, "multimap") || SeqStd(code, i, "multiset")) {
      if (IsPunct(code, i + 3, "<")) {
        int depth = 0;
        for (std::size_t j = i + 3; j < code.size(); ++j) {
          if (IsPunct(code, j, "<")) ++depth;
          if (IsPunct(code, j, ">") && --depth == 0) break;
          if (IsPunct(code, j, ",") && depth == 1) break;  // key scanned
          if (IsPunct(code, j, ";")) break;
          if (IsPunct(code, j, "*")) {
            ctx.Violate(code[i]->line, "nondet-pointer-key",
                        "ordered container keyed by a pointer iterates in "
                        "address order, which differs run to run; key by a "
                        "stable id (NodeId/ObjectId) instead");
            break;
          }
        }
      }
      continue;
    }

    // std::hash<T*> hashes the address itself.
    if (SeqStd(code, i, "hash") && IsPunct(code, i + 3, "<")) {
      const std::size_t end = SkipAngles(code, i + 3);
      for (std::size_t j = i + 3; j < end; ++j) {
        if (IsPunct(code, j, "*")) {
          ctx.Violate(code[i]->line, "nondet-pointer-hash",
                      "std::hash of a pointer type hashes the address, "
                      "which differs run to run; hash a stable id instead");
          break;
        }
      }
      continue;
    }
  }

  // Traversal of the recorded names: ranged-for and begin()-family calls.
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (IsIdent(code, i, "for") && IsPunct(code, i + 1, "(")) {
      int paren = 0, bracket = 0, brace = 0;
      std::size_t colon = 0;
      std::size_t close = code.size();
      for (std::size_t j = i + 1; j < code.size(); ++j) {
        const Token& t = *code[j];
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == "(") ++paren;
        if (t.text == ")" && --paren == 0) {
          close = j;
          break;
        }
        if (t.text == "[") ++bracket;
        if (t.text == "]") --bracket;
        if (t.text == "{") ++brace;
        if (t.text == "}") --brace;
        if (t.text == ":" && paren == 1 && bracket == 0 && brace == 0 &&
            colon == 0) {
          colon = j;
        }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_unordered_name(*code[j])) {
            ctx.Violate(code[i]->line, "nondet-unordered-iteration",
                        "ranged-for over an unordered container visits "
                        "elements in hash-table order, which varies across "
                        "libraries and runs; iterate a sorted view or a "
                        "dense table (radar::SlabMap) instead");
            break;
          }
        }
      }
    }
    if (is_unordered_name(*code[i]) && IsPunct(code, i + 1, ".") &&
        i + 2 < code.size() &&
        AnyOf(code[i + 2]->text, {"begin", "cbegin", "rbegin", "crbegin"})) {
      ctx.Violate(code[i]->line, "nondet-unordered-iteration",
                  "iterating an unordered container visits elements in "
                  "hash-table order, which varies across libraries and "
                  "runs; iterate a sorted view or a dense table "
                  "(radar::SlabMap) instead");
    }
  }
}

// ---------------------------------------------------------------------
// Mutable-global audit. A lightweight scope machine: at namespace level,
// statements are parsed enough to recognise variable definitions; inside
// functions and types only `static` declarations are inspected. Known
// blind spots (documented in DESIGN.md §13): paren-initialized globals
// (`Foo g(x);` is also the vexing parse), globals declared through
// macros, and anonymous-struct-typed globals without a declarator — none
// of which the tree uses.
// ---------------------------------------------------------------------

const std::array<std::string_view, 13> kRaceSafeTypes = {
    "atomic", "atomic_flag", "atomic_bool", "atomic_int", "atomic_uint",
    "atomic_size_t", "atomic_uint64_t", "mutex", "shared_mutex",
    "recursive_mutex", "timed_mutex", "once_flag", "condition_variable"};

class GlobalsPass {
 public:
  GlobalsPass(const Ctx& ctx, const Code& code) : ctx_(ctx), code_(code) {}

  void Run() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = *code_[i];
      if (AtNamespaceLevel()) {
        if (IsPunct(code_, i, ";")) {
          EndStatement();
        } else if (IsPunct(code_, i, "{")) {
          const Scope scope = Classify();
          if (scope == Scope::kInit) {
            i = SkipBraces(i);
            has_braced_init_ = true;
          } else {
            stack_.push_back(scope);
            stmt_.clear();
            has_braced_init_ = false;
            type_declarator_pending_ = false;
          }
        } else if (IsPunct(code_, i, "}")) {
          // Only namespace scopes close here (any other push makes
          // AtNamespaceLevel false until the matching pop below).
          if (!stack_.empty()) stack_.pop_back();
          stmt_.clear();
        } else {
          stmt_.push_back(code_[i]);
        }
        continue;
      }
      if (IsPunct(code_, i, "{")) {
        stack_.push_back(Scope::kBlock);
      } else if (IsPunct(code_, i, "}")) {
        if (!stack_.empty()) {
          const Scope closed = stack_.back();
          stack_.pop_back();
          // `struct Foo { ... } g_foo;` — back at namespace level with a
          // type body just closed, the tokens before `;` are declarators.
          if (closed == Scope::kType && AtNamespaceLevel()) {
            type_declarator_pending_ = true;
            stmt_.clear();
          }
        }
      } else if (t.kind == TokKind::kIdentifier && t.text == "static") {
        i = HandleScopedStatic(i);
      }
    }
    EndStatement();
  }

 private:
  enum class Scope : std::uint8_t { kNamespace, kType, kFunction, kBlock,
                                    kInit };

  bool AtNamespaceLevel() const {
    for (const Scope s : stack_) {
      if (s != Scope::kNamespace) return false;
    }
    return true;
  }

  /// What does the `{` we just hit open, given the statement before it?
  Scope Classify() const {
    bool has_eq = false;
    bool has_paren = false;
    int angle = 0;
    for (const Token* t : stmt_) {
      if (t->kind == TokKind::kIdentifier) {
        if (t->text == "namespace" || t->text == "extern") {
          return Scope::kNamespace;
        }
        if (angle == 0 && AnyOf(t->text, {"class", "struct", "union",
                                          "enum"})) {
          return Scope::kType;
        }
      } else if (t->kind == TokKind::kPunct) {
        if (t->text == "<") ++angle;
        if (t->text == ">" && angle > 0) --angle;
        if (t->text == "=") has_eq = true;
        if (t->text == "(") has_paren = true;
      }
    }
    if (has_eq) return Scope::kInit;
    if (has_paren) return Scope::kFunction;
    // `std::atomic<LogLevel> g_level{kWarn};` — a braced variable
    // initializer: type tokens then the declarator identifier.
    if (stmt_.size() >= 2 && stmt_.back()->kind == TokKind::kIdentifier) {
      return Scope::kInit;
    }
    return Scope::kFunction;
  }

  /// Index of the `}` matching the `{` at `open`.
  std::size_t SkipBraces(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < code_.size(); ++i) {
      if (IsPunct(code_, i, "{")) ++depth;
      if (IsPunct(code_, i, "}") && --depth == 0) return i;
    }
    return code_.size() - 1;
  }

  /// Declarator name: the last identifier outside template/array suffixes
  /// before the initializer (or the end of the declaration).
  static std::string ExtractName(const std::vector<const Token*>& decl) {
    std::string name;
    int angle = 0, bracket = 0;
    for (const Token* t : decl) {
      if (t->kind == TokKind::kPunct) {
        if (t->text == "<") ++angle;
        if (t->text == ">" && angle > 0) --angle;
        if (t->text == "[") ++bracket;
        if (t->text == "]" && bracket > 0) --bracket;
        if (t->text == "=" && angle == 0) break;
      } else if (t->kind == TokKind::kIdentifier && angle == 0 &&
                 bracket == 0) {
        name = t->text;
      }
    }
    return name;
  }

  static bool IsRaceSafeDecl(const std::vector<const Token*>& decl) {
    for (const Token* t : decl) {
      if (t->kind == TokKind::kIdentifier &&
          std::find(kRaceSafeTypes.begin(), kRaceSafeTypes.end(), t->text) !=
              kRaceSafeTypes.end()) {
        return true;
      }
    }
    return false;
  }

  void EndStatement() {
    const bool type_declarator = type_declarator_pending_;
    const bool braced_init = has_braced_init_;
    type_declarator_pending_ = false;
    has_braced_init_ = false;
    std::vector<const Token*> stmt = std::move(stmt_);
    stmt_.clear();
    if (stmt.empty()) return;

    bool has_eq = false;
    bool paren_before_init = false;
    for (const Token* t : stmt) {
      if (t->kind == TokKind::kIdentifier) {
        if (AnyOf(t->text, {"using", "typedef", "friend", "static_assert",
                            "template", "operator", "asm", "namespace"})) {
          return;
        }
        if (!type_declarator &&
            AnyOf(t->text, {"class", "struct", "union", "enum"})) {
          return;  // forward declaration
        }
        if (AnyOf(t->text,
                  {"const", "constexpr", "constinit", "thread_local"})) {
          return;  // immutable, or per-thread (not a cross-run race)
        }
        if (t->text == "extern" && !has_eq) {
          return;  // declaration of something defined elsewhere
        }
      } else if (t->kind == TokKind::kPunct) {
        if (t->text == "=") has_eq = true;
        if (t->text == "(" && !has_eq) paren_before_init = true;
      }
    }
    if (paren_before_init) return;  // function declaration/definition
    if (stmt.size() < 2 && !type_declarator) return;  // bare macro etc.

    const std::string name = ExtractName(stmt);
    if (name.empty()) return;
    Record(name, stmt.front()->line, IsRaceSafeDecl(stmt),
           /*function_local=*/false);
    (void)braced_init;
  }

  /// `code_[i]` is a `static` inside a function, block, or type. Parses
  /// the declaration it opens; returns the index of its terminator.
  std::size_t HandleScopedStatic(std::size_t i) {
    const bool in_type = !stack_.empty() && stack_.back() == Scope::kType;
    const bool inline_before = i > 0 && IsIdent(code_, i - 1, "inline");
    std::vector<const Token*> decl;
    bool has_eq = false;
    bool has_brace_init = false;
    bool paren_before_init = false;
    int depth = 0;
    std::size_t j = i;
    for (; j < code_.size(); ++j) {
      const Token& t = *code_[j];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[") ++depth;
        if (t.text == ")" || t.text == "]") --depth;
        if (t.text == "{") {
          if (depth == 0 && has_eq) {
            ++depth;  // `= {...}` initializer body
          } else if (depth == 0) {
            has_brace_init = true;
            ++depth;
          } else {
            ++depth;
          }
        }
        if (t.text == "}") {
          if (depth == 0) return j;  // scope closed mid-decl: malformed
          --depth;
        }
        if (depth == 0) {
          if (t.text == ";") break;
          if (t.text == "=") has_eq = true;
          if (t.text == "(" && !has_eq) paren_before_init = true;
        }
        if (t.text == "(" && depth == 1 && !has_eq) paren_before_init = true;
      }
      if (depth == 0) decl.push_back(code_[j]);
      if (decl.size() > 256) return j;  // malformed guard
    }
    for (const Token* t : decl) {
      if (t->kind == TokKind::kIdentifier &&
          AnyOf(t->text,
                {"const", "constexpr", "constinit", "thread_local"})) {
        return j;
      }
    }
    if (paren_before_init) return j;  // member function / vexing parse
    // In-class statics without an initializer are declarations; their
    // namespace-scope definition is audited instead. C++17 inline statics
    // are definitions right here.
    if (in_type && !has_eq && !has_brace_init && !inline_before) return j;
    const std::string name = ExtractName(decl);
    if (name.empty()) return j;
    Record(name, code_[i]->line, IsRaceSafeDecl(decl),
           /*function_local=*/!in_type);
    return j;
  }

  void Record(const std::string& name, int line, bool race_safe,
              bool function_local) {
    const GlobalWhitelistEntry* entry = nullptr;
    for (const GlobalWhitelistEntry& e : ctx_.whitelist) {
      if (e.name != name) continue;
      if (ctx_.path.size() >= e.file_suffix.size() &&
          ctx_.path.compare(ctx_.path.size() - e.file_suffix.size(),
                            e.file_suffix.size(), e.file_suffix) == 0) {
        entry = &e;
        break;
      }
    }
    ctx_.out->mutable_globals.push_back(
        {ctx_.path, line, name, race_safe, entry != nullptr, function_local,
         entry != nullptr ? entry->reason : std::string()});
    if (entry != nullptr && race_safe) return;
    std::string msg = "mutable ";
    msg += function_local ? "function-local static '" : "global '";
    msg += name;
    msg += "' is shared by the concurrent runs of a --jobs sweep; ";
    if (!race_safe) {
      msg += "make it std::atomic (or mutex-guarded)";
      msg += entry == nullptr ? " AND " : "";
    }
    if (entry == nullptr) {
      msg += "add it to the shared-state whitelist "
             "(lint::DefaultGlobalWhitelist)";
    }
    msg += " — or scope the state into the object that owns it";
    ctx_.Violate(line, "mutable-global", std::move(msg));
  }

  const Ctx& ctx_;
  const Code& code_;
  std::vector<Scope> stack_;
  std::vector<const Token*> stmt_;
  bool has_braced_init_ = false;
  bool type_declarator_pending_ = false;
};

// ---------------------------------------------------------------------
// Hot-path allocation audit over // RADAR_HOT ... // RADAR_HOT_END
// regions. The markers must START the comment (after the comment opener),
// so prose that merely mentions them does not open a region.
// ---------------------------------------------------------------------

/// Returns the marker payload when `comment` is a region marker:
/// "END" for RADAR_HOT_END, the label (possibly empty) for RADAR_HOT,
/// std::nullopt-like empty-optional semantics via a bool.
bool ParseHotMarker(std::string_view comment, bool* is_end,
                    std::string* label) {
  // Strip the comment opener and leading space/asterisks.
  if (comment.substr(0, 2) == "//" || comment.substr(0, 2) == "/*") {
    comment.remove_prefix(2);
  }
  while (!comment.empty() &&
         (comment.front() == ' ' || comment.front() == '*' ||
          comment.front() == '/')) {
    comment.remove_prefix(1);
  }
  constexpr std::string_view kTag = "RADAR_HOT";
  if (comment.substr(0, kTag.size()) != kTag) return false;
  comment.remove_prefix(kTag.size());
  if (comment.substr(0, 4) == "_END") {
    *is_end = true;
    return true;
  }
  // A marker, not a word containing the tag ("RADAR_HOTEL").
  if (!comment.empty() && comment.front() != ':' && comment.front() != ' ' &&
      comment.front() != '\n') {
    return false;
  }
  *is_end = false;
  if (!comment.empty() && comment.front() == ':') comment.remove_prefix(1);
  const std::size_t eol = comment.find('\n');
  if (eol != std::string_view::npos) comment = comment.substr(0, eol);
  while (!comment.empty() && comment.front() == ' ') comment.remove_prefix(1);
  while (!comment.empty() &&
         (comment.back() == ' ' || comment.back() == '/' ||
          comment.back() == '*')) {
    comment.remove_suffix(1);
  }
  *label = std::string(comment);
  return true;
}

void PassHotRegions(const Ctx& ctx, const std::vector<Token>& toks) {
  bool open = false;
  HotRegion region;
  const auto next_code = [&](std::size_t i) -> const Token* {
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kComment) return &toks[j];
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kComment) {
      bool is_end = false;
      std::string label;
      if (!ParseHotMarker(t.text, &is_end, &label)) continue;
      if (is_end) {
        if (!open) {
          ctx.Violate(t.line, "hot-region",
                      "RADAR_HOT_END without a matching RADAR_HOT");
          continue;
        }
        region.end_line = t.line;
        ctx.out->hot_regions.push_back(region);
        open = false;
      } else {
        if (open) {
          ctx.Violate(t.line, "hot-region",
                      "RADAR_HOT region opened inside another (missing "
                      "RADAR_HOT_END)");
          continue;
        }
        open = true;
        region = {ctx.path, label, t.line, 0};
      }
      continue;
    }
    if (!open || t.kind != TokKind::kIdentifier) continue;
    const Token* next = next_code(i);
    if (t.text == "new") {
      // Placement new (`new (addr) T`) reuses storage — not an
      // allocation; `operator new` declarations are not calls.
      const bool placement = next != nullptr &&
                             next->kind == TokKind::kPunct &&
                             next->text == "(";
      const bool prev_operator = i > 0 &&
                                 toks[i - 1].kind == TokKind::kIdentifier &&
                                 toks[i - 1].text == "operator";
      if (!placement && !prev_operator) {
        ctx.Violate(t.line, "hot-alloc",
                    "`new` inside a RADAR_HOT region: the dispatch/event "
                    "path must stay allocation-free (DESIGN.md §10); use "
                    "the slab/pool that owns this data");
      }
    } else if (t.text == "make_shared" || t.text == "make_unique") {
      ctx.Violate(t.line, "hot-alloc",
                  "heap allocation inside a RADAR_HOT region: the "
                  "dispatch/event path must stay allocation-free "
                  "(DESIGN.md §10)");
    } else if (t.text == "function" && i >= 2 &&
               toks[i - 1].kind == TokKind::kPunct &&
               toks[i - 1].text == "::" &&
               toks[i - 2].kind == TokKind::kIdentifier &&
               toks[i - 2].text == "std") {
      ctx.Violate(t.line, "hot-alloc",
                  "std::function inside a RADAR_HOT region allocates per "
                  "capture; use sim::InplaceFunction");
    }
  }
  if (open) {
    ctx.Violate(region.begin_line, "hot-region",
                "RADAR_HOT region never closed (missing RADAR_HOT_END)");
    region.end_line = 0;
    ctx.out->hot_regions.push_back(region);
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

const std::vector<GlobalWhitelistEntry>& DefaultGlobalWhitelist() {
  static const std::vector<GlobalWhitelistEntry> kWhitelist = {
      {"common/log.cpp", "g_level",
       "process-wide log threshold; std::atomic with relaxed loads — "
       "concurrent runs may race on verbosity, never on results"},
  };
  return kWhitelist;
}

std::string StripCommentsAndStrings(std::string_view content) {
  std::string out(content);
  for (const Token& t : Lex(content)) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kString &&
        t.kind != TokKind::kChar) {
      continue;
    }
    // Plain string/char literals keep their delimiters (the historical
    // contract); raw strings and comments are blanked whole — their
    // delimiters (`R"(`, `//`, `*/`) would read as code fragments.
    std::size_t begin = t.begin;
    std::size_t end = t.end;
    const std::size_t quote = t.text.find_first_of("\"'");
    const bool raw = quote != std::string::npos && quote > 0 &&
                     t.text[quote - 1] == 'R';
    if (t.kind != TokKind::kComment && !raw && end - begin >= 2) {
      ++begin;
      --end;
    }
    for (std::size_t i = begin; i < end && i < out.size(); ++i) {
      if (out[i] != '\n' && out[i] != '\r') out[i] = ' ';
    }
  }
  return out;
}

void AnalyzeSource(const std::string& path_label, std::string_view content,
                   const FileKind& kind,
                   const std::vector<GlobalWhitelistEntry>& whitelist,
                   Analysis* out) {
  const std::vector<Token> toks = Lex(content);
  Code code;
  Code plain;  // code tokens outside preprocessor directives
  code.reserve(toks.size());
  for (const Token& t : toks) {
    if (t.kind == TokKind::kComment) continue;
    code.push_back(&t);
    if (t.directive.empty() && t.text != "#") plain.push_back(&t);
  }
  const Ctx ctx{path_label, kind, whitelist, out};
  const std::size_t base = out->violations.size();

  PassHeaderHygiene(ctx, code);
  PassBannedTokens(ctx, code);
  PassNondeterminism(ctx, code);
  GlobalsPass(ctx, plain).Run();
  PassHotRegions(ctx, toks);

  std::stable_sort(out->violations.begin() +
                       static_cast<std::ptrdiff_t>(base),
                   out->violations.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.line < b.line;
                   });
}

std::vector<Violation> LintSource(const std::string& path_label,
                                  std::string_view content,
                                  const FileKind& kind) {
  Analysis analysis;
  AnalyzeSource(path_label, content, kind, DefaultGlobalWhitelist(),
                &analysis);
  return std::move(analysis.violations);
}

Analysis AnalyzeTree(const std::vector<std::filesystem::path>& roots) {
  namespace fs = std::filesystem;
  Analysis analysis;
  for (const fs::path& root : roots) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cpp") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    const std::string root_name = root.filename().generic_string();
    for (const fs::path& file : files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) {
        analysis.violations.push_back(
            {file.string(), 0, "io-error", "cannot read file"});
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();

      // Label paths relative to the tree root (prefixed with the root's
      // basename) so output is stable whether the caller passed an
      // absolute or relative root.
      const std::string rel = fs::relative(file, root).generic_string();
      FileKind kind;
      kind.is_header = file.extension() == ".h";
      if (root_name == "tools") {
        // CLI entry points live at tools/ top level and own the terminal;
        // everything nested (tools/lint/, ...) is library code.
        kind.allow_cli_output = rel.find('/') == std::string::npos;
      } else {
        kind.allow_protocol_literals = rel == "core/params.h";
        kind.allow_threads = rel.rfind("runner/", 0) == 0;
        kind.forbid_std_function = rel.rfind("sim/", 0) == 0;
        kind.allow_fault_injection = rel.rfind("fault/", 0) == 0;
        kind.forbid_hash_maps = rel.rfind("core/", 0) == 0;
        kind.allow_transport_syscalls = rel.rfind("transport/", 0) == 0 ||
                                        rel.rfind("binlog/", 0) == 0;
        // The transport layer owns the real clock too (TcpTransport::Now
        // is CLOCK_MONOTONIC; binlog records carry real timestamps).
        kind.allow_wall_clock =
            rel.rfind("runner/", 0) == 0 || kind.allow_transport_syscalls;
        kind.forbid_net_rng =
            rel.rfind("net/", 0) == 0 && rel != "net/topology_gen.cpp";
      }
      AnalyzeSource(root_name + "/" + rel, buf.str(), kind,
                    DefaultGlobalWhitelist(), &analysis);
      ++analysis.files_scanned;
    }
  }
  return analysis;
}

std::vector<Violation> LintTree(const std::filesystem::path& src_root) {
  return AnalyzeTree({src_root}).violations;
}

std::string FormatViolation(const Violation& v) {
  std::ostringstream out;
  out << v.file << ':' << v.line << ": [" << v.rule << "] " << v.message;
  return out.str();
}

}  // namespace radar::lint
