// eeb_lint core: a token/regex-based invariant checker for the EEB tree.
// No libclang dependency — rules are curated patterns over comment- and
// string-stripped source, which is exactly the right power level for the
// project invariants they enforce:
//
//   dropped-status   a known Status-returning call used as a bare statement
//                    (redundant with [[nodiscard]] Status, but catches code
//                    that is not compiled on this configuration)
//   env-io           raw file opens (fopen / ::open / fstream) in library
//                    code bypassing the storage::Env choke point
//   determinism      std::rand / random_device / mt19937 / time-seeds in
//                    library code instead of common/random.h's seeded Rng;
//                    also std::chrono::system_clock (wall time) where a
//                    duration needs steady_clock (common/timer.h)
//   iostream         std::cout / std::cerr / printf-family output in
//                    library code (reporting belongs to src/obs/)
//   naked-new        new/delete outside the unique_ptr factory idiom
//   raw-ioerror      Status::IOError minted in library code outside
//                    src/storage/ — IOError drives the retry/degradation
//                    policy and must mean "the storage layer failed"
//   header-hygiene   headers without an include guard or with
//                    `using namespace` at header scope
//
// v2 structural passes (tokenizer- and include-graph-driven):
//
//   layering         cross-module #include edges in src/ must appear in
//                    tools/layering.manifest; back-edges and includes of
//                    undeclared modules are errors, and the manifest itself
//                    must be acyclic
//   lock-coverage    a class that declares a Mutex member must annotate
//                    every other mutable member with EEB_GUARDED_BY /
//                    EEB_PT_GUARDED_BY or explicitly opt it out with
//                    EEB_UNGUARDED(reason)
//   hot-path         no allocation or container/string growth inside
//                    `// eeb-hot-begin(<label>)` ... `// eeb-hot-end`
//                    regions (the gen/reduce/refine kernels and ReadPoint)
//   atomic-misuse    load-then-store on the same std::atomic in one
//                    function (a non-atomic read-modify-write unless a
//                    compare_exchange is present), and atomic operations
//                    relying on the implicit seq_cst default instead of an
//                    explicit memory order
//
// Suppressions: `// eeb-lint: allow(<rule>)` on the offending line or the
// line directly above silences one finding; `// eeb-lint: allow-file(<rule>)`
// anywhere silences the rule for the whole file. Both take a comma-separated
// rule list or `all`.

#ifndef EEB_TOOLS_LINT_CORE_H_
#define EEB_TOOLS_LINT_CORE_H_

#include <map>
#include <string>
#include <vector>

namespace eeb::lint {

struct Finding {
  std::string file;     ///< repo-relative path, forward slashes
  int line = 0;         ///< 1-based
  int end_line = 0;     ///< 1-based last line of the span (0 = same as line)
  std::string rule;     ///< rule identifier, e.g. "env-io"
  std::string message;  ///< human-readable explanation
};

/// Parsed tools/layering.manifest: module -> modules it may include.
struct LayeringManifest {
  std::map<std::string, std::vector<std::string>> deps;
  bool loaded = false;
};

/// Parses manifest text ("module: dep dep ..." lines, '#' comments).
/// Returns false and sets `error` on malformed input or an unknown
/// dependency (a dep that is not itself a declared module).
bool ParseLayeringManifest(const std::string& content, LayeringManifest* out,
                           std::string* error);

/// Returns a dependency cycle through the manifest (a module sequence where
/// each entry depends on the next and the last equals the first), or an
/// empty vector if the declared graph is acyclic.
std::vector<std::string> ManifestCycle(const LayeringManifest& manifest);

/// Per-run knobs. Layering only runs when a manifest is supplied.
struct LintOptions {
  const LayeringManifest* layering = nullptr;
};

/// All rule identifiers, in report order.
const std::vector<std::string>& RuleNames();

/// Checks one file's `content`. `path` must be repo-relative with forward
/// slashes — rule scoping (library vs. tool code, allowlisted files) keys
/// off it. Appends findings in line order.
void CheckSource(const std::string& path, const std::string& content,
                 std::vector<Finding>* findings);
void CheckSource(const std::string& path, const std::string& content,
                 const LintOptions& options, std::vector<Finding>* findings);

/// `eeb_lint --fix`: rewrites mechanically fixable findings in `content` —
/// bare default-order atomic operations gain an explicit
/// std::memory_order_seq_cst argument, and unannotated members of
/// mutex-owning classes gain an EEB_UNGUARDED("FIXME: ...") stub to be
/// replaced with a real annotation or justification. Returns true and fills
/// `fixed` when anything changed; idempotent (a second pass is a no-op).
bool ApplyFixes(const std::string& path, const std::string& content,
                std::string* fixed);

/// Renders findings as "<file>:<line>: [<rule>] <message>" lines.
std::string FormatText(const std::vector<Finding>& findings);

/// Renders a JSON report: {"files_checked":N,"counts":{<every rule>:n},
/// "findings":[{file,line,end_line,rule,message},...]}.
std::string FormatJson(const std::vector<Finding>& findings,
                       size_t files_checked);

}  // namespace eeb::lint

#endif  // EEB_TOOLS_LINT_CORE_H_
