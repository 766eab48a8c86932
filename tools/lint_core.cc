#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <regex>
#include <set>
#include <sstream>

namespace eeb::lint {
namespace {

// ------------------------------------------------------------ preprocessing

/// One source line split into executable code and its comment text.
struct Line {
  std::string code;     ///< comments and string/char literals blanked out
  std::string comment;  ///< text of // and /* */ comments on this line
};

/// Strips comments and literals while preserving the line structure, so rule
/// patterns never fire inside strings ("delete from table") or comments, and
/// suppression directives are read from comment text only.
std::vector<Line> Preprocess(const std::string& content) {
  std::vector<Line> lines(1);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated string literals do not cross lines in valid code.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      lines.emplace_back();
      continue;
    }
    Line& line = lines.back();
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          line.code += '"';
        } else if (c == '\'') {
          state = State::kChar;
          line.code += '\'';
        } else {
          line.code += c;
        }
        break;
      case State::kLineComment:
        line.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          line.code += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          line.code += '\'';
        }
        break;
    }
  }
  return lines;
}

// ------------------------------------------------------------- suppressions

struct Suppressions {
  std::vector<std::set<std::string>> per_line;  ///< allow(...) by line index
  std::set<std::string> file_wide;              ///< allow-file(...)
};

void ParseRuleList(const std::string& list, std::set<std::string>* out) {
  std::string item;
  std::istringstream in(list);
  while (std::getline(in, item, ',')) {
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               item.end());
    if (!item.empty()) out->insert(item);
  }
}

Suppressions CollectSuppressions(const std::vector<Line>& lines) {
  static const std::regex kAllow(R"(eeb-lint:\s*allow\(([^)]*)\))");
  static const std::regex kAllowFile(R"(eeb-lint:\s*allow-file\(([^)]*)\))");
  Suppressions sup;
  sup.per_line.resize(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i].comment, m, kAllow)) {
      ParseRuleList(m[1].str(), &sup.per_line[i]);
    }
    if (std::regex_search(lines[i].comment, m, kAllowFile)) {
      ParseRuleList(m[1].str(), &sup.file_wide);
    }
  }
  return sup;
}

bool Suppressed(const Suppressions& sup, size_t line_index,
                const std::string& rule) {
  auto allows = [&](const std::set<std::string>& s) {
    return s.count(rule) > 0 || s.count("all") > 0;
  };
  if (allows(sup.file_wide)) return true;
  if (line_index >= sup.per_line.size()) return false;
  if (allows(sup.per_line[line_index])) return true;
  // A directive on the line directly above covers this line.
  if (line_index > 0 && allows(sup.per_line[line_index - 1])) return true;
  return false;
}

// ------------------------------------------------------------------ scoping

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Library code: the invariants about I/O, determinism, output channels, and
/// ownership bind here. Tools, benches, tests, and examples are entry points
/// that may print, parse ad-hoc files, and use their own randomness.
bool IsLibraryCode(const std::string& path) { return StartsWith(path, "src/"); }

bool IsHeader(const std::string& path) {
  return path.size() > 2 && (path.substr(path.size() - 2) == ".h" ||
                             (path.size() > 4 &&
                              path.substr(path.size() - 4) == ".hpp"));
}

// -------------------------------------------------------------------- rules

void AddFinding(std::vector<Finding>* findings, const Suppressions& sup,
                const std::string& path, size_t line_index,
                const std::string& rule, const std::string& message) {
  if (Suppressed(sup, line_index, rule)) return;
  findings->push_back({path, static_cast<int>(line_index) + 1,
                       static_cast<int>(line_index) + 1, rule, message});
}

/// Multi-line finding (a whole member statement, an unclosed region). The
/// suppression directive is honored on the first line of the span.
void AddFindingSpan(std::vector<Finding>* findings, const Suppressions& sup,
                    const std::string& path, size_t first_line_index,
                    size_t last_line_index, const std::string& rule,
                    const std::string& message) {
  if (Suppressed(sup, first_line_index, rule)) return;
  findings->push_back({path, static_cast<int>(first_line_index) + 1,
                       static_cast<int>(last_line_index) + 1, rule, message});
}

/// dropped-status: a call to a method known to return eeb::Status used as a
/// bare statement. The statement is the flagged line joined with up to four
/// continuation lines (until ';'), and is exonerated by anything that
/// consumes the result: assignment, return, a macro wrapper, .ok(),
/// IgnoreError(), or a test assertion.
void CheckDroppedStatus(const std::string& path,
                        const std::vector<Line>& lines,
                        const Suppressions& sup,
                        std::vector<Finding>* findings) {
  // Methods whose name unambiguously means "returns Status" in this tree.
  // (Append is deliberately absent: Dataset::Append returns a PointId,
  // which would drown the rule in false positives — the [[nodiscard]]
  // attribute is the authoritative enforcement; this rule is the redundant
  // net for code not compiled in the current configuration.)
  static const std::regex kCall(
      R"(^\s*[A-Za-z_][\w:\.\[\]\(\)\->]*(->|\.))"
      R"((Close|Flush|Sync|DeleteFile)\s*\()");
  static const std::regex kFreeCall(
      R"(^\s*(::)?(\w+::)*(WriteStringToFile|CleanupIfError)\s*\()");
  static const std::regex kConsumed(
      R"(=|\breturn\b|\.ok\s*\(|IgnoreError|RETURN_IF_ERROR|RecordIfError)"
      R"(|EXPECT_|ASSERT_|\bif\b|\bwhile\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (!std::regex_search(code, kCall) &&
        !std::regex_search(code, kFreeCall)) {
      continue;
    }
    std::string stmt = code;
    for (size_t j = i + 1;
         j < lines.size() && j < i + 5 && stmt.find(';') == std::string::npos;
         ++j) {
      stmt += ' ';
      stmt += lines[j].code;
    }
    if (std::regex_search(stmt, kConsumed)) continue;
    AddFinding(findings, sup, path, i, "dropped-status",
               "result of a Status-returning call is silently dropped; "
               "propagate it, test .ok(), or acknowledge with IgnoreError()");
  }
}

/// env-io: raw file opens in library code. All disk access goes through
/// storage::Env so that I/O accounting has a single choke point; the POSIX
/// Env implementation itself is the allowlisted bottom of that stack.
void CheckEnvIo(const std::string& path, const std::vector<Line>& lines,
                const Suppressions& sup, std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  if (path == "src/storage/env.cc") return;  // the Env implementation
  static const std::regex kOpen(
      R"(\b(fopen|freopen|fdopen|creat|mkstemp)\s*\()"
      R"(|::open\s*\(|\.open\s*\()"
      R"(|\bstd::(i|o)?fstream\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kOpen)) {
      AddFinding(findings, sup, path, i, "env-io",
                 "raw file open bypasses storage::Env; route disk access "
                 "through Env so I/O stays accountable");
    }
  }
}

/// determinism: ad-hoc randomness in library code. Benchmark tables must
/// reproduce bit-for-bit, so every randomized component takes a seed and
/// draws from common/random.h's Rng.
void CheckDeterminism(const std::string& path, const std::vector<Line>& lines,
                      const Suppressions& sup,
                      std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  if (path == "src/common/random.h") return;  // the sanctioned generator
  static const std::regex kRandom(
      R"(\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b|\bmt19937\b)"
      R"(|\bdrand48\b|\btime\s*\(\s*(NULL|nullptr|0)\s*\))");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kRandom)) {
      AddFinding(findings, sup, path, i, "determinism",
                 "non-seeded/platform-dependent randomness in library code; "
                 "use eeb::Rng from common/random.h with an explicit seed");
    }
  }
  // system_clock is wall time: it jumps on NTP steps and varies across
  // machines, so durations measured with it are non-deterministic and
  // occasionally negative. Library code measures durations with
  // steady_clock (common/timer.h); wall timestamps belong in tools.
  static const std::regex kWallClock(R"(\bsystem_clock\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kWallClock)) {
      AddFinding(findings, sup, path, i, "determinism",
                 "std::chrono::system_clock in library code; measure "
                 "durations with steady_clock (common/timer.h) — wall-clock "
                 "timestamps belong in tools");
    }
  }
}

/// iostream: direct terminal output in library code. Reporting belongs to
/// src/obs/ instruments and injectable std::ostream sinks; a library that
/// prints cannot be embedded.
void CheckIostream(const std::string& path, const std::vector<Line>& lines,
                   const Suppressions& sup, std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  static const std::regex kOutput(
      R"(\bstd::(cout|cerr|clog)\b|#\s*include\s*<iostream>)"
      R"(|\b(printf|fprintf|puts|fputs)\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    // #include lives in code text; re-add it for the include pattern.
    if (std::regex_search(code, kOutput)) {
      AddFinding(findings, sup, path, i, "iostream",
                 "terminal output in library code; record through src/obs/ "
                 "instruments or write to an injectable std::ostream sink");
    }
  }
}

/// naked-new: manual memory management outside the factory idiom. A `new`
/// immediately owned by a smart pointer on the same statement line
/// (unique_ptr<T> p(new T), out->reset(new T)) is the project's sanctioned
/// form for private-constructor factories; anything else leaks on the error
/// path. `delete` has no sanctioned form ( `= delete` declarations aside).
void CheckNakedNew(const std::string& path, const std::vector<Line>& lines,
                   const Suppressions& sup, std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kOwned(
      R"(unique_ptr|shared_ptr|make_unique|make_shared|\breset\s*\()");
  static const std::regex kDelete(R"(\bdelete\b(\s*\[\s*\])?)");
  static const std::regex kDeletedFn(R"(=\s*delete\b)");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    // A wrapped statement puts the owning unique_ptr/reset( on the line
    // above the `new`; accept ownership on either line.
    const bool owned =
        std::regex_search(code, kOwned) ||
        (i > 0 && std::regex_search(lines[i - 1].code, kOwned));
    if (std::regex_search(code, kNew) && !owned) {
      AddFinding(findings, sup, path, i, "naked-new",
                 "`new` outside the smart-pointer factory idiom; wrap the "
                 "allocation in unique_ptr on the same statement");
    }
    if (std::regex_search(code, kDelete) &&
        !std::regex_search(code, kDeletedFn)) {
      AddFinding(findings, sup, path, i, "naked-new",
                 "manual `delete`; ownership belongs to smart pointers");
    }
  }
}

/// raw-ioerror: a Status::IOError constructed in library code outside
/// src/storage/. IOError means "the storage layer failed"; minting one
/// elsewhere bypasses the retry/degradation machinery keyed on that code
/// (RetryingEnv retries IOError, the engine degrades on it) and makes a
/// logic failure look transient. Use InvalidArgument/NotSupported/etc., or
/// propagate the storage layer's own status.
void CheckRawIoError(const std::string& path, const std::vector<Line>& lines,
                     const Suppressions& sup,
                     std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  if (StartsWith(path, "src/storage/")) return;  // the I/O layer itself
  static const std::regex kIoError(R"(\bStatus::IOError\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kIoError)) {
      AddFinding(findings, sup, path, i, "raw-ioerror",
                 "Status::IOError minted outside src/storage/; IOError "
                 "drives retry/degradation policy — propagate the storage "
                 "status or use a non-I/O error code");
    }
  }
}

/// header-hygiene: every header needs an include guard (or #pragma once),
/// and `using namespace` in a header leaks into every includer.
void CheckHeaderHygiene(const std::string& path,
                        const std::vector<Line>& lines,
                        const Suppressions& sup,
                        std::vector<Finding>* findings) {
  if (!IsHeader(path)) return;
  static const std::regex kGuard(R"(#\s*(pragma\s+once|ifndef)\b)");
  static const std::regex kUsingNamespace(R"(\busing\s+namespace\b)");
  bool has_guard = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kGuard)) has_guard = true;
    if (std::regex_search(lines[i].code, kUsingNamespace)) {
      AddFinding(findings, sup, path, i, "header-hygiene",
                 "`using namespace` in a header leaks into every includer");
    }
  }
  if (!has_guard && !lines.empty()) {
    AddFinding(findings, sup, path, 0, "header-hygiene",
               "header has neither an include guard nor #pragma once");
  }
}

// ------------------------------------------------------ structural scanner
//
// The v2 passes need more shape than single-line regexes give: which
// statements are class members, and which text ranges are function bodies.
// The scanner walks the blanked code (comments and literals already
// stripped by Preprocess) tracking brace and paren depth, and classifies
// each '{' from the statement segment preceding it: class/struct bodies
// collect member statements, function bodies (constructor init lists and
// annotated signatures included) become opaque ranges for the atomic pass,
// and brace initializers are consumed into the surrounding statement.

struct Statement {
  std::string text;      ///< blanked text, terminating ';' excluded
  size_t first_line = 0; ///< 0-based line index of the first token
  size_t last_line = 0;  ///< 0-based line index of the terminating ';'
};

struct ClassBody {
  std::vector<Statement> members;
};

struct Structure {
  std::vector<ClassBody> classes;
  /// Outermost function bodies as [begin, end) offsets into the blank text
  /// (nested lambdas and local classes stay part of the enclosing range).
  std::vector<std::pair<size_t, size_t>> functions;
};

std::string TrimRight(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

enum class BraceKind { kOther, kNamespace, kClass, kFunction, kInit };

BraceKind ClassifyBrace(const std::string& segment) {
  // "template <class T>" would trip the class-head check below; drop the
  // parameter list (one nesting level is enough for this tree).
  static const std::regex kTemplateIntro(
      R"(\btemplate\s*<[^<>]*(<[^<>]*>)?[^<>]*>)");
  static const std::regex kEnum(R"(\benum\b)");
  static const std::regex kNamespace(R"(\bnamespace\b)");
  // class/struct/union followed only by names, attributes/annotation macros
  // (paren groups), and an optional base clause up to the '{'.
  static const std::regex kClassHead(
      R"(\b(class|struct|union)\b([^;=(){}]|\([^()]*\))*$)");
  // Function signatures end in ')' once trailing qualifiers, annotation
  // macros, and trailing-return types are stripped.
  static const std::regex kSignatureTail(
      R"(((const|noexcept|override|final|try|mutable))"
      R"(|(->\s*[\w:<>,*&\s\[\]]+))"
      R"(|(EEB_\w+(\s*\((\([^()]*\)|[^()])*\))?))\s*$)");
  std::string s = TrimRight(segment);
  if (s.empty()) return BraceKind::kOther;
  if (std::regex_search(s, kEnum)) return BraceKind::kOther;
  s = std::regex_replace(s, kTemplateIntro, " ");
  if (std::regex_search(s, kClassHead)) return BraceKind::kClass;
  if (std::regex_search(s, kNamespace)) return BraceKind::kNamespace;
  std::string prev;
  do {
    prev = s;
    s = TrimRight(std::regex_replace(s, kSignatureTail, ""));
  } while (prev != s);
  if (!s.empty() && s.back() == ')') return BraceKind::kFunction;
  return BraceKind::kInit;
}

Structure ScanStructure(const std::string& blank) {
  Structure out;
  struct Scope {
    BraceKind kind;
    size_t class_index = 0;  ///< into out.classes when kind == kClass
    size_t fn_begin = 0;     ///< body start offset when kind == kFunction
    bool outermost_fn = false;
  };
  std::vector<Scope> stack;
  std::string segment;
  size_t segment_line = 0;
  bool segment_has_content = false;
  int paren_depth = 0;
  int fn_nesting = 0;
  size_t line = 0;

  auto reset_segment = [&] {
    segment.clear();
    segment_has_content = false;
  };
  auto append = [&](char c) {
    if (!segment_has_content &&
        !std::isspace(static_cast<unsigned char>(c))) {
      segment_line = line;
      segment_has_content = true;
    }
    segment += c;
  };

  size_t i = 0;
  while (i < blank.size()) {
    const char c = blank[i];
    if (c == '\n') {
      ++line;
      segment += ' ';
      ++i;
      continue;
    }
    if (c == '(') {
      ++paren_depth;
      append(c);
      ++i;
      continue;
    }
    if (c == ')') {
      if (paren_depth > 0) --paren_depth;
      append(c);
      ++i;
      continue;
    }
    if (paren_depth > 0 || (c != '{' && c != '}' && c != ';')) {
      append(c);
      ++i;
      continue;
    }
    if (c == ';') {
      if (segment_has_content && !stack.empty() &&
          stack.back().kind == BraceKind::kClass && fn_nesting == 0) {
        out.classes[stack.back().class_index].members.push_back(
            {segment, segment_line, line});
      }
      reset_segment();
      ++i;
      continue;
    }
    if (c == '}') {
      if (!stack.empty()) {
        const Scope top = stack.back();
        stack.pop_back();
        if (top.kind == BraceKind::kFunction) {
          --fn_nesting;
          if (top.outermost_fn) out.functions.push_back({top.fn_begin, i});
        }
      }
      reset_segment();
      ++i;
      continue;
    }
    // '{' at paren depth 0: classify from the preceding segment. Inside a
    // function body everything is opaque — depth-track only.
    const BraceKind kind =
        fn_nesting > 0 ? BraceKind::kOther : ClassifyBrace(segment);
    if (kind == BraceKind::kInit) {
      // Brace initializer: consume through the matching '}' into the
      // statement so `Rng rng_{42};` stays one member statement.
      int depth = 0;
      while (i < blank.size()) {
        const char b = blank[i];
        if (b == '\n') {
          ++line;
          segment += ' ';
        } else {
          append(b);
          if (b == '{') ++depth;
          if (b == '}') {
            --depth;
            if (depth == 0) {
              ++i;
              break;
            }
          }
        }
        ++i;
      }
      continue;
    }
    Scope scope;
    scope.kind = kind;
    if (kind == BraceKind::kClass) {
      scope.class_index = out.classes.size();
      out.classes.emplace_back();
    } else if (kind == BraceKind::kFunction) {
      scope.fn_begin = i + 1;
      scope.outermost_fn = fn_nesting == 0;
      ++fn_nesting;
    }
    stack.push_back(scope);
    reset_segment();
    ++i;
  }
  return out;
}

/// Joins the blanked code lines back into one text, recording each line's
/// start offset so span positions can be mapped back to line indices.
std::string JoinBlank(const std::vector<Line>& lines,
                      std::vector<size_t>* line_starts) {
  std::string blank;
  for (const Line& l : lines) {
    line_starts->push_back(blank.size());
    blank += l.code;
    blank += '\n';
  }
  return blank;
}

size_t LineAt(const std::vector<size_t>& line_starts, size_t pos) {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return it == line_starts.begin()
             ? 0
             : static_cast<size_t>(it - line_starts.begin()) - 1;
}

// --------------------------------------------------- lock-coverage (v2)

/// Declares-a-lock detector. `Mutex m_;` and `std::mutex m_;` (with or
/// without `mutable`) match; `MutexLock` (no space before the name) and
/// `Mutex& mu_` references (borrowed, not owned) do not.
bool DeclaresMutexMember(const std::string& stmt) {
  static const std::regex kMutexMember(
      R"(\b((std::)?mutex|Mutex)\s+[A-Za-z_]\w*)");
  return std::regex_search(stmt, kMutexMember);
}

/// lock-coverage: a class that owns a Mutex is a concurrency boundary, so
/// every other mutable member must either be EEB_GUARDED_BY one of its
/// locks or carry an explicit EEB_UNGUARDED(reason) opt-out. Members whose
/// type synchronizes itself (atomics, condition variables, other locks) and
/// immutable members (const/constexpr/static) are exempt.
void CheckLockCoverage(const std::string& path,
                       const std::vector<Line>& lines,
                       const Suppressions& sup,
                       std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  std::vector<size_t> line_starts;
  const std::string blank = JoinBlank(lines, &line_starts);
  const Structure structure = ScanStructure(blank);
  static const std::regex kSkipStmt(R"(\b(using|typedef|friend)\b)");
  static const std::regex kAnnotated(
      R"(\bEEB_(GUARDED_BY|PT_GUARDED_BY|UNGUARDED)\b)");
  static const std::regex kExemptType(
      R"(\b(static|constexpr|const|atomic|CondVar|condition_variable)"
      R"(|thread|once_flag)\b)");
  static const std::regex kMemberName(R"(\b([A-Za-z]\w*_)\s*($|=|\{|\[|EEB_))");
  for (const ClassBody& cls : structure.classes) {
    bool has_mutex = false;
    for (const Statement& m : cls.members) {
      if (DeclaresMutexMember(m.text)) {
        has_mutex = true;
        break;
      }
    }
    if (!has_mutex) continue;
    for (const Statement& m : cls.members) {
      if (DeclaresMutexMember(m.text)) continue;  // the lock itself
      if (std::regex_search(m.text, kSkipStmt)) continue;
      std::smatch name;
      if (!std::regex_search(m.text, name, kMemberName)) continue;
      if (std::regex_search(m.text, kAnnotated)) continue;
      if (std::regex_search(m.text, kExemptType)) continue;
      AddFindingSpan(
          findings, sup, path, m.first_line, m.last_line, "lock-coverage",
          "member '" + name[1].str() +
              "' of a mutex-owning class is neither EEB_GUARDED_BY one of "
              "its locks nor opted out with EEB_UNGUARDED(reason)");
    }
  }
}

// ------------------------------------------------------- hot-path (v2)

/// hot-path: `// eeb-hot-begin(<label>)` ... `// eeb-hot-end` fences the
/// gen/reduce/refine kernels and ReadPoint's page loop. Inside a region,
/// anything that allocates or grows a container/string is a finding —
/// those loops run per candidate per query and must work entirely out of
/// pre-sized scratch. Malformed, nested, or unclosed markers are findings
/// too, so a typo cannot silently unfence a kernel.
void CheckHotPath(const std::string& path, const std::vector<Line>& lines,
                  const Suppressions& sup, std::vector<Finding>* findings) {
  // Anchored to the start of the comment text so prose that merely mentions
  // a marker (like this file's own rule documentation) does not open one.
  static const std::regex kBegin(R"(^[\s/]*eeb-hot-begin)");
  static const std::regex kBeginLabeled(
      R"(^[\s/]*eeb-hot-begin\(([^()\s]+)\))");
  static const std::regex kEnd(R"(^[\s/]*eeb-hot-end)");
  static const std::regex kBanned(
      R"(\bnew\b|\bmake_unique\b|\bmake_shared\b|\bpush_back\b)"
      R"(|\bemplace_back\b|\.emplace\s*\(|\.resize\s*\(|\.reserve\s*\()"
      R"(|\.insert\s*\(|\.append\s*\(|\bstd::string\b|\bto_string\b)"
      R"(|\bostringstream\b|\bstringstream\b)");
  bool in_region = false;
  size_t begin_line = 0;
  std::string label;
  for (size_t i = 0; i < lines.size(); ++i) {
    const Line& l = lines[i];
    if (std::regex_search(l.comment, kBegin)) {
      std::smatch m;
      if (!std::regex_search(l.comment, m, kBeginLabeled)) {
        AddFinding(findings, sup, path, i, "hot-path",
                   "malformed hot-region marker; expected "
                   "eeb-hot-begin(<label>)");
      } else if (in_region) {
        AddFinding(findings, sup, path, i, "hot-path",
                   "nested eeb-hot-begin inside region '" + label + "'");
      } else {
        in_region = true;
        begin_line = i;
        label = m[1].str();
      }
      continue;
    }
    if (std::regex_search(l.comment, kEnd)) {
      if (!in_region) {
        AddFinding(findings, sup, path, i, "hot-path",
                   "eeb-hot-end without a matching eeb-hot-begin");
      }
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    std::smatch m;
    if (std::regex_search(l.code, m, kBanned)) {
      AddFinding(findings, sup, path, i, "hot-path",
                 "'" + TrimRight(m.str()) + "' inside hot region '" + label +
                     "'; kernels must not allocate or grow "
                     "containers/strings — size scratch before entry");
    }
  }
  if (in_region) {
    AddFindingSpan(findings, sup, path, begin_line, lines.size() - 1,
                   "hot-path",
                   "eeb-hot-begin(" + label + ") is never closed; add the "
                   "matching eeb-hot-end");
  }
}

// --------------------------------------------------- atomic-misuse (v2)

/// atomic-misuse, two legs over the known std::atomic member operations:
///  (a) a function that `.load()`s and `.store()`s the same atomic without
///      a compare_exchange on it is a non-atomic read-modify-write — two
///      racing callers both read the old value and one update is lost;
///  (b) an operation with no explicit memory_order argument silently takes
///      seq_cst — in this tree every atomic is either a relaxed statistic
///      or a carefully fenced publication, so the order must be spelled
///      out (and seq_cst, where truly meant, written as such).
void CheckAtomicMisuse(const std::string& path,
                       const std::vector<Line>& lines,
                       const Suppressions& sup,
                       std::vector<Finding>* findings) {
  if (!IsLibraryCode(path)) return;
  std::vector<size_t> line_starts;
  const std::string blank = JoinBlank(lines, &line_starts);
  const Structure structure = ScanStructure(blank);

  static const std::regex kAtomicOp(
      R"((\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and)"
      R"(|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong))"
      R"(\s*\()");

  struct Site {
    std::string var;  ///< identifier before the '.'; empty for `expr).op(`
    std::string op;
    size_t pos = 0;   ///< offset of the operator token
    size_t line = 0;
    bool has_order = false;
  };
  std::vector<Site> sites;
  for (auto it = std::sregex_iterator(blank.begin(), blank.end(), kAtomicOp);
       it != std::sregex_iterator(); ++it) {
    Site s;
    s.pos = static_cast<size_t>(it->position());
    s.op = (*it)[2].str();
    s.line = LineAt(line_starts, s.pos);
    // Walk left over the receiver to get a grouping key for the RMW leg.
    size_t j = s.pos;
    while (j > 0 &&
           (std::isalnum(static_cast<unsigned char>(blank[j - 1])) ||
            blank[j - 1] == '_')) {
      --j;
    }
    if (j < s.pos) s.var = blank.substr(j, s.pos - j);
    // Match the argument list to see whether an order is passed.
    const size_t open = s.pos + static_cast<size_t>(it->length()) - 1;
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t p = open; p < blank.size(); ++p) {
      if (blank[p] == '(') ++depth;
      if (blank[p] == ')' && --depth == 0) {
        close = p;
        break;
      }
    }
    if (close == std::string::npos) continue;  // unbalanced; not our code
    s.has_order = blank.find("memory_order", open) < close;
    sites.push_back(s);
  }

  for (const Site& s : sites) {
    if (s.has_order) continue;
    AddFinding(findings, sup, path, s.line, "atomic-misuse",
               "atomic '" + (s.var.empty() ? std::string("<expr>") : s.var) +
                   "." + s.op +
                   "' relies on the implicit seq_cst default; spell the "
                   "memory order out (std::memory_order_seq_cst if "
                   "sequential consistency is really intended)");
  }

  for (const auto& [begin, end] : structure.functions) {
    struct VarOps {
      bool loaded = false, stored = false, cas = false;
      size_t store_line = 0;
    };
    std::map<std::string, VarOps> per_var;
    for (const Site& s : sites) {
      if (s.pos < begin || s.pos >= end || s.var.empty()) continue;
      VarOps& v = per_var[s.var];
      if (s.op == "load") v.loaded = true;
      if (s.op == "store") {
        v.stored = true;
        v.store_line = s.line;
      }
      if (StartsWith(s.op, "compare_exchange")) v.cas = true;
    }
    for (const auto& [var, ops] : per_var) {
      if (!ops.loaded || !ops.stored || ops.cas) continue;
      AddFinding(findings, sup, path, ops.store_line, "atomic-misuse",
                 "load + store on atomic '" + var +
                     "' in one function is a non-atomic read-modify-write; "
                     "use fetch_*/compare_exchange, or suppress with the "
                     "single-writer invariant documented on the line");
    }
  }
}

// -------------------------------------------------------- layering (v2)

std::string ModuleOf(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

/// layering: every cross-module #include edge in src/ must be declared in
/// tools/layering.manifest. Scans the RAW content — Preprocess blanks
/// string literals, which is exactly where the include target lives.
void CheckLayering(const std::string& path, const std::string& content,
                   const Suppressions& sup, const LayeringManifest& manifest,
                   std::vector<Finding>* findings) {
  const std::string module = ModuleOf(path);
  if (module.empty()) return;
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  const auto mod_it = manifest.deps.find(module);
  std::istringstream in(content);
  std::string raw;
  bool undeclared_reported = false;
  size_t i = 0;
  for (; std::getline(in, raw); ++i) {
    std::smatch m;
    if (!std::regex_search(raw, m, kInclude)) continue;
    const std::string target = m[1].str();
    const size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target_module = target.substr(0, slash);
    if (target_module == module) continue;
    if (manifest.deps.find(target_module) == manifest.deps.end()) {
      continue;  // not an src/ module (third-party or generated)
    }
    if (mod_it == manifest.deps.end()) {
      if (!undeclared_reported) {
        AddFinding(findings, sup, path, i, "layering",
                   "module '" + module +
                       "' is not declared in tools/layering.manifest");
        undeclared_reported = true;
      }
      continue;
    }
    const std::vector<std::string>& allowed = mod_it->second;
    if (std::find(allowed.begin(), allowed.end(), target_module) ==
        allowed.end()) {
      AddFinding(findings, sup, path, i, "layering",
                 "#include \"" + target + "\" creates layering edge " +
                     module + " -> " + target_module +
                     ", which tools/layering.manifest does not allow");
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Trims both ends.
std::string Trim(std::string s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  s.erase(0, b);
  return TrimRight(std::move(s));
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      "dropped-status", "env-io",         "determinism",
      "iostream",       "naked-new",      "raw-ioerror",
      "header-hygiene", "layering",       "lock-coverage",
      "hot-path",       "atomic-misuse"};
  return kRules;
}

bool ParseLayeringManifest(const std::string& content, LayeringManifest* out,
                           std::string* error) {
  out->deps.clear();
  out->loaded = false;
  std::istringstream in(content);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      *error = "layering.manifest:" + std::to_string(lineno) +
               ": expected 'module: dep dep ...'";
      return false;
    }
    const std::string module = Trim(line.substr(0, colon));
    if (module.empty() || module.find(' ') != std::string::npos) {
      *error = "layering.manifest:" + std::to_string(lineno) +
               ": malformed module name";
      return false;
    }
    if (out->deps.count(module) > 0) {
      *error = "layering.manifest:" + std::to_string(lineno) +
               ": duplicate module '" + module + "'";
      return false;
    }
    std::vector<std::string> deps;
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.push_back(dep);
    out->deps[module] = std::move(deps);
  }
  for (const auto& [module, deps] : out->deps) {
    for (const std::string& dep : deps) {
      if (out->deps.count(dep) == 0) {
        *error = "layering.manifest: module '" + module +
                 "' depends on undeclared module '" + dep + "'";
        return false;
      }
    }
  }
  out->loaded = true;
  return true;
}

std::vector<std::string> ManifestCycle(const LayeringManifest& manifest) {
  std::map<std::string, int> color;  // 0 new, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& module) {
        color[module] = 1;
        stack.push_back(module);
        const auto it = manifest.deps.find(module);
        if (it != manifest.deps.end()) {
          for (const std::string& dep : it->second) {
            const int c = color[dep];
            if (c == 1) {
              const auto pos = std::find(stack.begin(), stack.end(), dep);
              cycle.assign(pos, stack.end());
              cycle.push_back(dep);
              return true;
            }
            if (c == 0 && visit(dep)) return true;
          }
        }
        color[module] = 2;
        stack.pop_back();
        return false;
      };
  for (const auto& [module, deps] : manifest.deps) {
    if (color[module] == 0 && visit(module)) return cycle;
  }
  return {};
}

void CheckSource(const std::string& path, const std::string& content,
                 std::vector<Finding>* findings) {
  CheckSource(path, content, LintOptions{}, findings);
}

void CheckSource(const std::string& path, const std::string& content,
                 const LintOptions& options, std::vector<Finding>* findings) {
  const std::vector<Line> lines = Preprocess(content);
  const Suppressions sup = CollectSuppressions(lines);
  const size_t first = findings->size();
  CheckDroppedStatus(path, lines, sup, findings);
  CheckEnvIo(path, lines, sup, findings);
  CheckDeterminism(path, lines, sup, findings);
  CheckIostream(path, lines, sup, findings);
  CheckNakedNew(path, lines, sup, findings);
  CheckRawIoError(path, lines, sup, findings);
  CheckHeaderHygiene(path, lines, sup, findings);
  CheckLockCoverage(path, lines, sup, findings);
  CheckHotPath(path, lines, sup, findings);
  CheckAtomicMisuse(path, lines, sup, findings);
  if (options.layering != nullptr && options.layering->loaded) {
    CheckLayering(path, content, sup, *options.layering, findings);
  }
  std::sort(findings->begin() + first, findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

bool ApplyFixes(const std::string& path, const std::string& content,
                std::string* fixed) {
  *fixed = content;
  if (!IsLibraryCode(path)) return false;
  const std::vector<Line> lines = Preprocess(content);
  const Suppressions sup = CollectSuppressions(lines);

  // Raw lines, newline-split; structural edits below never add or remove
  // lines, so indices stay valid across both legs.
  std::vector<std::string> raw;
  {
    size_t start = 0;
    for (size_t i = 0; i <= content.size(); ++i) {
      if (i == content.size() || content[i] == '\n') {
        raw.push_back(content.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  const bool trailing_newline =
      !content.empty() && content.back() == '\n';
  if (trailing_newline && !raw.empty() && raw.back().empty()) raw.pop_back();
  bool changed = false;

  // Leg 1: default-order atomic operations gain an explicit seq_cst. Only
  // single-line calls with a balanced argument list are patched; anything
  // else stays a finding for a human.
  {
    static const std::regex kAtomicOp(
        R"((\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and)"
        R"(|fetch_or|fetch_xor)\s*\()");
    for (size_t i = 0; i < raw.size(); ++i) {
      if (i >= lines.size()) break;
      if (Suppressed(sup, i, "atomic-misuse")) continue;
      // Detect on the blanked line (no strings/comments), patch the raw one.
      if (!std::regex_search(lines[i].code, kAtomicOp)) continue;
      std::string& line = raw[i];
      std::vector<size_t> opens;  // '(' offsets of each op call, in order
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kAtomicOp);
           it != std::sregex_iterator(); ++it) {
        opens.push_back(static_cast<size_t>(it->position() + it->length()) -
                        1);
      }
      for (auto o = opens.rbegin(); o != opens.rend(); ++o) {
        int depth = 0;
        size_t close = std::string::npos;
        for (size_t p = *o; p < line.size(); ++p) {
          if (line[p] == '(') ++depth;
          if (line[p] == ')' && --depth == 0) {
            close = p;
            break;
          }
        }
        if (close == std::string::npos) continue;  // spans lines; skip
        const std::string args = line.substr(*o + 1, close - *o - 1);
        if (args.find("memory_order") != std::string::npos) continue;
        if (Trim(args).empty()) {
          line.replace(*o + 1, close - *o - 1, "std::memory_order_seq_cst");
        } else {
          line.insert(close, ", std::memory_order_seq_cst");
        }
        changed = true;
      }
    }
  }

  // Leg 2: unannotated members of mutex-owning classes get an
  // EEB_UNGUARDED stub to replace with a real annotation or justification.
  // The macro expands to nothing, so appending it before the ';' is safe
  // even after a brace initializer.
  {
    std::vector<Finding> coverage;
    CheckLockCoverage(path, lines, sup, &coverage);
    std::sort(coverage.begin(), coverage.end(),
              [](const Finding& a, const Finding& b) {
                return a.end_line > b.end_line;
              });
    for (const Finding& f : coverage) {
      const size_t idx = static_cast<size_t>(f.end_line) - 1;
      if (idx >= raw.size()) continue;
      std::string& line = raw[idx];
      const size_t semi = line.rfind(';');
      if (semi == std::string::npos) continue;
      if (line.find("EEB_UNGUARDED") != std::string::npos) continue;
      line.insert(semi,
                  " EEB_UNGUARDED(\"FIXME: annotate with EEB_GUARDED_BY or "
                  "justify\")");
      changed = true;
    }
  }

  if (!changed) return false;
  std::string joined;
  for (size_t i = 0; i < raw.size(); ++i) {
    joined += raw[i];
    if (i + 1 < raw.size() || trailing_newline) joined += '\n';
  }
  *fixed = std::move(joined);
  return *fixed != content;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

std::string FormatJson(const std::vector<Finding>& findings,
                       size_t files_checked) {
  std::map<std::string, size_t> counts;
  for (const std::string& rule : RuleNames()) counts[rule] = 0;
  for (const Finding& f : findings) ++counts[f.rule];
  std::string out = "{\n  \"files_checked\": " +
                    std::to_string(files_checked) + ",\n  \"counts\": {";
  bool first = true;
  for (const std::string& rule : RuleNames()) {
    if (!first) out += ",";
    out += "\n    \"" + JsonEscape(rule) + "\": " +
           std::to_string(counts[rule]);
    first = false;
  }
  out += "\n  },\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ",";
    const int end_line = f.end_line > 0 ? f.end_line : f.line;
    out += "\n    {\"file\":\"" + JsonEscape(f.file) +
           "\",\"line\":" + std::to_string(f.line) +
           ",\"end_line\":" + std::to_string(end_line) + ",\"rule\":\"" +
           JsonEscape(f.rule) + "\",\"message\":\"" + JsonEscape(f.message) +
           "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace eeb::lint
