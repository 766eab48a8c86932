// Tests for the eeb_lint rule engine: every rule fires exactly once on a
// known-bad snippet, a representative clean file produces nothing, the
// allow / allow-file escape hatches silence findings, and rule scoping
// (library vs. tool code, allowlisted files) behaves as documented.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint_core.h"

namespace eeb::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  std::vector<Finding> findings;
  CheckSource(path, src, &findings);
  return findings;
}

/// Exactly one finding, of the expected rule, on the expected line.
void ExpectSingle(const std::vector<Finding>& findings,
                  const std::string& rule, int line) {
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, rule);
  EXPECT_EQ(findings[0].line, line);
}

// ---------------------------------------------------------- dropped-status

TEST(LintTest, DroppedStatusFires) {
  const std::string src =
      "void F(eeb::storage::WritableFile* f) {\n"
      "  f->Close();\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "dropped-status", 2);
}

TEST(LintTest, DroppedStatusSpansContinuationLines) {
  const std::string src =
      "void F(eeb::storage::Env* env) {\n"
      "  env->DeleteFile(\n"
      "      very_long_path_expression);\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "dropped-status", 2);
}

TEST(LintTest, ConsumedStatusIsClean) {
  const std::string src =
      "Status F(eeb::storage::WritableFile* f) {\n"
      "  EEB_RETURN_IF_ERROR(f->Flush());\n"
      "  Status s = f->Close();\n"
      "  if (!f->Sync().ok()) return s;\n"
      "  f->Close().IgnoreError();\n"
      "  return s;\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

// ------------------------------------------------------------------ env-io

TEST(LintTest, EnvIoFires) {
  const std::string src =
      "void F() {\n"
      "  std::FILE* f = fopen(\"/tmp/x\", \"r\");\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "env-io", 2);
}

TEST(LintTest, EnvIoAllowsTheEnvImplementationAndToolCode) {
  const std::string src = "int fd = ::open(path, O_RDONLY);\n";
  EXPECT_TRUE(Lint("src/storage/env.cc", src).empty());
  EXPECT_TRUE(Lint("tools/some_tool.cc", src).empty());
  EXPECT_TRUE(Lint("tests/some_test.cc", src).empty());
  ExpectSingle(Lint("src/cache/code_cache.cc", src), "env-io", 1);
}

// ------------------------------------------------------------- determinism

TEST(LintTest, DeterminismFires) {
  const std::string src =
      "int F() {\n"
      "  return rand() % 7;\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "determinism", 2);
}

TEST(LintTest, DeterminismAllowsRandomHeaderAndSeededRng) {
  EXPECT_TRUE(Lint("src/common/random.h",
                   "#pragma once\nstd::random_device rd;\n")
                  .empty());
  EXPECT_TRUE(
      Lint("src/foo/bar.cc", "Rng rng(options.seed);\n").empty());
  ExpectSingle(Lint("src/foo/bar.cc", "std::mt19937 gen(42);\n"),
               "determinism", 1);
}

TEST(LintTest, DeterminismFlagsSystemClockInLibraryCode) {
  const std::string src =
      "void F() {\n"
      "  auto t0 = std::chrono::system_clock::now();\n"
      "}\n";
  ExpectSingle(Lint("src/core/system.cc", src), "determinism", 2);
  // Tools may take wall-clock timestamps (log lines, artifact metadata).
  EXPECT_TRUE(Lint("tools/eeb_bench.cc", src).empty());
  EXPECT_TRUE(Lint("tests/obs_test.cc", src).empty());
}

TEST(LintTest, DeterminismAllowsSteadyClockAndSuppressedSystemClock) {
  EXPECT_TRUE(
      Lint("src/common/timer.h",
           "#pragma once\n"
           "auto t0 = std::chrono::steady_clock::now();\n")
          .empty());
  EXPECT_TRUE(
      Lint("src/foo/bar.cc",
           "auto wall = std::chrono::system_clock::now();"
           "  // eeb-lint: allow(determinism)\n")
          .empty());
}

// ---------------------------------------------------------------- iostream

TEST(LintTest, IostreamFires) {
  const std::string src =
      "void Report() {\n"
      "  std::cout << \"done\\n\";\n"
      "}\n";
  ExpectSingle(Lint("src/core/system.cc", src), "iostream", 2);
}

TEST(LintTest, IostreamAllowsToolsBenchTests) {
  const std::string src = "std::cout << \"usage\\n\"; printf(\"x\");\n";
  EXPECT_TRUE(Lint("tools/eeb_cli.cc", src).empty());
  EXPECT_TRUE(Lint("bench/bench_micro.cc", src).empty());
  EXPECT_TRUE(Lint("tests/foo_test.cc", src).empty());
}

TEST(LintTest, IostreamIgnoresBufferFormattingAndStrings) {
  // vsnprintf formats into a buffer (no terminal output), and a string
  // literal mentioning printf is not a call.
  const std::string src =
      "void F(std::string* out) {\n"
      "  char buf[64];\n"
      "  std::vsnprintf(buf, sizeof(buf), \"%d\", 1);\n"
      "  *out = \"printf(\";\n"
      "}\n";
  EXPECT_TRUE(Lint("src/obs/export.cc", src).empty());
}

// --------------------------------------------------------------- naked-new

TEST(LintTest, NakedNewFires) {
  const std::string src =
      "void F() {\n"
      "  int* p = new int[8];\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "naked-new", 2);
}

TEST(LintTest, NakedDeleteFires) {
  const std::string src =
      "void F(int* p) {\n"
      "  delete p;\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "naked-new", 2);
}

TEST(LintTest, FactoryIdiomAndDeletedFunctionsAreClean) {
  const std::string src =
      "struct T {\n"
      "  T(const T&) = delete;\n"
      "};\n"
      "void F() {\n"
      "  std::unique_ptr<T> a(new T());\n"
      "  std::unique_ptr<T> b;\n"
      "  b.reset(new T());\n"
      "  auto c = std::make_unique<T>();\n"
      "  b.reset(\n"
      "      new T());\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

// ---------------------------------------------------------- header-hygiene

TEST(LintTest, MissingGuardFires) {
  ExpectSingle(Lint("src/foo/bar.h", "struct T {};\n"), "header-hygiene", 1);
}

TEST(LintTest, UsingNamespaceInHeaderFires) {
  const std::string src =
      "#pragma once\n"
      "using namespace std;\n";
  ExpectSingle(Lint("src/foo/bar.h", src), "header-hygiene", 2);
}

TEST(LintTest, GuardedHeaderIsClean) {
  const std::string src =
      "#ifndef EEB_FOO_BAR_H_\n"
      "#define EEB_FOO_BAR_H_\n"
      "struct T {};\n"
      "#endif\n";
  EXPECT_TRUE(Lint("src/foo/bar.h", src).empty());
}

// ------------------------------------------------------------ suppressions

TEST(LintTest, AllowOnSameLineSuppresses) {
  const std::string src =
      "void F() {\n"
      "  std::FILE* f = fopen(\"/x\", \"r\");  // eeb-lint: allow(env-io)\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, AllowOnPrecedingLineSuppresses) {
  const std::string src =
      "void F() {\n"
      "  // justified because ... eeb-lint: allow(env-io)\n"
      "  std::FILE* f = fopen(\"/x\", \"r\");\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, AllowIsRuleSpecific) {
  // The allow names a different rule, so the finding survives.
  const std::string src =
      "void F() {\n"
      "  std::FILE* f = fopen(\"/x\", \"r\");  // eeb-lint: allow(iostream)\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "env-io", 2);
}

TEST(LintTest, AllowFileSuppressesWholeFile) {
  const std::string src =
      "// eeb-lint: allow-file(determinism)\n"
      "int a = rand();\n"
      "int b = rand();\n"
      "std::random_device rd;\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

// ------------------------------------------------- comments, strings, clean

TEST(LintTest, CommentsAndStringsDoNotFire) {
  const std::string src =
      "// fopen(\"x\") would bypass Env; delete it; std::cout << bad\n"
      "/* rand() in a block comment\n"
      "   spanning lines with new int[3] */\n"
      "const char* doc = \"use fopen, rand(), new, delete, std::cout\";\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, RepresentativeCleanLibraryFile) {
  const std::string src =
      "#ifndef EEB_FOO_BAR_H_\n"
      "#define EEB_FOO_BAR_H_\n"
      "\n"
      "#include \"common/status.h\"\n"
      "\n"
      "namespace eeb {\n"
      "\n"
      "class Widget {\n"
      " public:\n"
      "  Status Save(storage::Env* env) {\n"
      "    std::unique_ptr<storage::WritableFile> f;\n"
      "    EEB_RETURN_IF_ERROR(env->NewWritableFile(path_, &f));\n"
      "    EEB_RETURN_IF_ERROR(f->Append(data_.data(), data_.size()));\n"
      "    return f->Close();\n"
      "  }\n"
      "\n"
      " private:\n"
      "  std::string path_;\n"
      "  std::vector<char> data_;\n"
      "};\n"
      "\n"
      "}  // namespace eeb\n"
      "\n"
      "#endif  // EEB_FOO_BAR_H_\n";
  EXPECT_TRUE(Lint("src/foo/bar.h", src).empty());
}

// ---------------------------------------------------------------- formats

TEST(LintTest, OutputFormats) {
  std::vector<Finding> findings;
  CheckSource("src/a.cc", "int* p = new int;\n", &findings);
  ASSERT_EQ(findings.size(), 1u);

  const std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/a.cc:1: [naked-new]"), std::string::npos);

  const std::string json = FormatJson(findings, 1);
  EXPECT_NE(json.find("\"files_checked\": 1"), std::string::npos);
  // Per-rule counts list every rule, including the zero ones.
  EXPECT_NE(json.find("\"naked-new\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"layering\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"atomic-misuse\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"end_line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"naked-new\""), std::string::npos);

  const std::string empty = FormatJson({}, 0);
  EXPECT_NE(empty.find("\"files_checked\": 0"), std::string::npos);
  EXPECT_NE(empty.find("\"findings\": []"), std::string::npos);
}

// ------------------------------------------------------------- raw-ioerror

TEST(LintTest, RawIoErrorFires) {
  const std::string src =
      "Status F() {\n"
      "  return Status::IOError(\"engine hiccup\");\n"
      "}\n";
  ExpectSingle(Lint("src/core/knn_engine.cc", src), "raw-ioerror", 2);
}

TEST(LintTest, RawIoErrorScopedToLibraryOutsideStorage) {
  const std::string src = "return Status::IOError(\"disk\");\n";
  // The storage layer is where IOError legitimately originates.
  EXPECT_TRUE(Lint("src/storage/env.cc", src).empty());
  EXPECT_TRUE(Lint("src/storage/retry_env.cc", src).empty());
  // Tools and tests mint whatever they need.
  EXPECT_TRUE(Lint("tools/eeb_cli.cc", src).empty());
  EXPECT_TRUE(Lint("tests/foo_test.cc", src).empty());
  // Everywhere else in src/ it is a finding.
  ExpectSingle(Lint("src/cache/code_cache.cc", src), "raw-ioerror", 1);
}

TEST(LintTest, RawIoErrorIgnoresOtherCodesAndPropagation) {
  const std::string src =
      "Status F(Status st) {\n"
      "  if (st.IsIOError()) return st;\n"
      "  return Status::InvalidArgument(\"bad\");\n"
      "}\n";
  EXPECT_TRUE(Lint("src/core/system.cc", src).empty());
}

TEST(LintTest, RawIoErrorSuppressible) {
  const std::string src =
      "Status F() {\n"
      "  // eeb-lint: allow(raw-ioerror)\n"
      "  return Status::IOError(\"sanctioned\");\n"
      "}\n";
  EXPECT_TRUE(Lint("src/obs/export.cc", src).empty());
}

TEST(LintTest, EveryRuleHasAName) {
  const std::vector<std::string> expected = {
      "dropped-status", "env-io",         "determinism",
      "iostream",       "naked-new",      "raw-ioerror",
      "header-hygiene", "layering",       "lock-coverage",
      "hot-path",       "atomic-misuse"};
  EXPECT_EQ(RuleNames(), expected);
}

// ---------------------------------------------------------------- layering

/// A three-module manifest for the edge tests: cache may use common and
/// obs; obs may use common; common sits at the bottom.
LayeringManifest TestManifest() {
  LayeringManifest m;
  std::string error;
  EXPECT_TRUE(ParseLayeringManifest(
      "# test layering\ncommon:\nobs: common\ncache: common obs\n", &m,
      &error))
      << error;
  return m;
}

std::vector<Finding> LintLayered(const LayeringManifest& manifest,
                                 const std::string& path,
                                 const std::string& src) {
  LintOptions options;
  options.layering = &manifest;
  std::vector<Finding> findings;
  CheckSource(path, src, options, &findings);
  return findings;
}

TEST(LintTest, LayeringAllowsDeclaredEdgesSelfAndThirdParty) {
  const LayeringManifest m = TestManifest();
  const std::string src =
      "#include \"cache/knn_cache.h\"\n"     // same module
      "#include \"common/status.h\"\n"       // declared edge
      "#include \"obs/metrics.h\"\n"         // declared edge
      "#include <vector>\n"                  // system header
      "#include \"third_party/x.h\"\n";      // not an src module
  EXPECT_TRUE(LintLayered(m, "src/cache/code_cache.cc", src).empty());
}

TEST(LintTest, LayeringBackEdgeFires) {
  const LayeringManifest m = TestManifest();
  // obs -> cache is a back-edge: obs declares only common.
  ExpectSingle(
      LintLayered(m, "src/obs/metrics.cc", "#include \"cache/knn_cache.h\"\n"),
      "layering", 1);
}

TEST(LintTest, LayeringUndeclaredModuleFires) {
  const LayeringManifest m = TestManifest();
  // "core" is not in the test manifest, and the include targets a module
  // that is — so core's layering obligations are undeclared.
  ExpectSingle(
      LintLayered(m, "src/core/system.cc", "#include \"common/status.h\"\n"),
      "layering", 1);
}

TEST(LintTest, LayeringOnlyBindsInsideSrc) {
  const LayeringManifest m = TestManifest();
  // Entry-point trees may include anything.
  EXPECT_TRUE(
      LintLayered(m, "tools/eeb_cli.cc", "#include \"cache/knn_cache.h\"\n")
          .empty());
  // Without a manifest the pass does not run at all.
  EXPECT_TRUE(
      Lint("src/obs/metrics.cc", "#include \"cache/knn_cache.h\"\n").empty());
}

TEST(LintTest, LayeringBackEdgeSuppressible) {
  const LayeringManifest m = TestManifest();
  EXPECT_TRUE(LintLayered(m, "src/obs/metrics.cc",
                          "// eeb-lint: allow(layering)\n"
                          "#include \"cache/knn_cache.h\"\n")
                  .empty());
}

TEST(LintTest, ManifestParseRejectsMalformedInput) {
  LayeringManifest m;
  std::string error;
  EXPECT_FALSE(ParseLayeringManifest("common\n", &m, &error));
  EXPECT_NE(error.find("expected"), std::string::npos);
  EXPECT_FALSE(ParseLayeringManifest("a: b\n", &m, &error));
  EXPECT_NE(error.find("undeclared"), std::string::npos);
  EXPECT_FALSE(ParseLayeringManifest("a:\na:\n", &m, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(LintTest, ManifestCycleDetection) {
  LayeringManifest m;
  std::string error;
  ASSERT_TRUE(ParseLayeringManifest("a: b\nb: c\nc: a\n", &m, &error));
  const std::vector<std::string> cycle = ManifestCycle(m);
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front(), cycle.back());

  ASSERT_TRUE(ParseLayeringManifest("a: b c\nb: c\nc:\n", &m, &error));
  EXPECT_TRUE(ManifestCycle(m).empty());
}

// ----------------------------------------------------------- lock-coverage

TEST(LintTest, LockCoverageFiresOnUnannotatedMember) {
  const std::string src =
      "class C {\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_;\n"
      "};\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "lock-coverage", 4);
}

TEST(LintTest, LockCoverageSpansMultiLineMembers) {
  const std::string src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  std::map<int,\n"
      "           int> big_map_;\n"
      "};\n";
  const std::vector<Finding> findings = Lint("src/foo/bar.cc", src);
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "lock-coverage");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].end_line, 4);
}

TEST(LintTest, LockCoverageAcceptsAnnotationsAndOptOuts) {
  const std::string src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  int count_ EEB_GUARDED_BY(mu_) = 0;\n"
      "  Node* head_ EEB_PT_GUARDED_BY(mu_) = nullptr;\n"
      "  Queue queue_ EEB_UNGUARDED(\"internally synchronized\");\n"
      "};\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, LockCoverageExemptsSelfSynchronizingAndImmutableMembers) {
  const std::string src =
      "class C {\n"
      "  mutable Mutex mu_;\n"
      "  std::atomic<uint64_t> hits_{0};\n"
      "  CondVar cv_;\n"
      "  std::thread worker_;\n"
      "  const int k_;\n"
      "  static constexpr int kMax = 4;\n"
      "  Env* const base_;\n"
      "};\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, LockCoverageIgnoresLocklessClassesAndBorrowedMutexes) {
  // No Mutex member: not a concurrency boundary, nothing to annotate.
  EXPECT_TRUE(Lint("src/foo/bar.cc",
                   "class P {\n  int x_;\n  double y_;\n};\n")
                  .empty());
  // A Mutex& member is borrowed (scoped-lock idiom), not owned.
  EXPECT_TRUE(Lint("src/foo/bar.cc",
                   "class L {\n  Mutex& mu_;\n  int x_;\n};\n")
                  .empty());
  // Tests and tools may keep ad-hoc guarded state without annotations.
  EXPECT_TRUE(Lint("tests/foo_test.cc",
                   "class C {\n  Mutex mu_;\n  int count_;\n};\n")
                  .empty());
}

// ---------------------------------------------------------------- hot-path

TEST(LintTest, HotPathFiresOnGrowthInsideRegion) {
  const std::string src =
      "void F(std::vector<int>* v) {\n"
      "  // eeb-hot-begin(kernel): per-candidate loop\n"
      "  v->push_back(1);\n"
      "  // eeb-hot-end\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "hot-path", 3);
}

TEST(LintTest, HotPathCleanRegionAndOutsideGrowth) {
  const std::string src =
      "void F(std::vector<double>& a, std::vector<double>& p) {\n"
      "  a.reserve(64);\n"  // growth outside the region is fine
      "  double dot = 0.0;\n"
      "  // eeb-hot-begin(dot-product)\n"
      "  for (size_t j = 0; j < a.size(); ++j) dot += a[j] * p[j];\n"
      "  // eeb-hot-end\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, HotPathMarkerErrors) {
  // Missing label (no end marker either — a malformed begin opens nothing,
  // so a trailing end would be a second, equally correct finding).
  ExpectSingle(Lint("src/a.cc", "// eeb-hot-begin\nint x;\n"), "hot-path", 1);
  // Nested begin.
  ExpectSingle(Lint("src/a.cc",
                    "// eeb-hot-begin(outer)\n"
                    "// eeb-hot-begin(inner)\n"
                    "// eeb-hot-end\n"),
               "hot-path", 2);
  // End without begin.
  ExpectSingle(Lint("src/a.cc", "int x;\n// eeb-hot-end\n"), "hot-path", 2);
  // Unclosed region: the finding spans from the marker to EOF.
  const std::vector<Finding> findings =
      Lint("src/a.cc", "// eeb-hot-begin(leaky)\nint x;\nint y;\n");
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "hot-path");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_GE(findings[0].end_line, 3);
}

TEST(LintTest, HotPathProseMentionDoesNotOpenARegion) {
  // A comment that merely talks about the eeb-hot-begin(<label>) marker —
  // like the lint rule's own documentation — is not a marker.
  const std::string src =
      "// Fence kernels with eeb-hot-begin(<label>) ... eeb-hot-end pairs.\n"
      "void F(std::vector<int>* v) { v->push_back(1); }\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

// ------------------------------------------------------------ atomic-misuse

TEST(LintTest, AtomicDefaultOrderFires) {
  const std::string src =
      "void F(std::atomic<int>& a) {\n"
      "  a.store(1);\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "atomic-misuse", 2);
}

TEST(LintTest, AtomicExplicitOrderIsClean) {
  const std::string src =
      "void F(std::atomic<int>& a) {\n"
      "  a.store(1, std::memory_order_relaxed);\n"
      "  a.fetch_add(2, std::memory_order_acq_rel);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, AtomicLoadThenStoreFires) {
  const std::string src =
      "void Bump(std::atomic<int>& a) {\n"
      "  int v = a.load(std::memory_order_relaxed);\n"
      "  a.store(v + 1, std::memory_order_relaxed);\n"
      "}\n";
  ExpectSingle(Lint("src/foo/bar.cc", src), "atomic-misuse", 3);
}

TEST(LintTest, AtomicCompareExchangeLoopIsClean) {
  const std::string src =
      "void Max(std::atomic<int>& a, int v) {\n"
      "  int cur = a.load(std::memory_order_relaxed);\n"
      "  while (cur < v && !a.compare_exchange_weak(\n"
      "                        cur, v, std::memory_order_relaxed)) {\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Lint("src/foo/bar.cc", src).empty());
}

TEST(LintTest, AtomicSeqlockWriterSuppressible) {
  // The seqlock writer's version bump is a load-then-store by design; the
  // single-writer invariant goes on the suppressing line.
  const std::string src =
      "void WriteCell(Cell& cell) {\n"
      "  uint64_t v = cell.version.load(std::memory_order_relaxed);\n"
      "  // single writer: the slot-cursor claim owns this cell\n"
      "  // eeb-lint: allow(atomic-misuse)\n"
      "  cell.version.store(v + 1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/obs/recorder_like.cc", src).empty());
}

TEST(LintTest, AtomicRulesScopedToLibraryCode) {
  const std::string src =
      "void F(std::atomic<int>& a) {\n"
      "  a.store(a.load() + 1);\n"
      "}\n";
  EXPECT_TRUE(Lint("tests/foo_test.cc", src).empty());
  EXPECT_TRUE(Lint("bench/bench_micro.cc", src).empty());
}

// ---------------------------------------------------------------- --fix

TEST(LintTest, FixInsertsExplicitMemoryOrders) {
  const std::string src =
      "void F(std::atomic<int>& a) {\n"
      "  a.store(1);\n"
      "}\n"
      "int G(const std::atomic<int>& a) {\n"
      "  return a.load();\n"
      "}\n";
  std::string fixed;
  ASSERT_TRUE(ApplyFixes("src/foo/bar.cc", src, &fixed));
  EXPECT_NE(fixed.find("a.store(1, std::memory_order_seq_cst);"),
            std::string::npos);
  EXPECT_NE(fixed.find("a.load(std::memory_order_seq_cst)"),
            std::string::npos);
  // The fixed file is clean and a second pass is a no-op.
  EXPECT_TRUE(Lint("src/foo/bar.cc", fixed).empty());
  std::string again;
  EXPECT_FALSE(ApplyFixes("src/foo/bar.cc", fixed, &again));
  EXPECT_EQ(again, fixed);
}

TEST(LintTest, FixInsertsUnguardedStubs) {
  const std::string src =
      "class C {\n"
      "  Mutex mu_;\n"
      "  int count_;\n"
      "};\n";
  std::string fixed;
  ASSERT_TRUE(ApplyFixes("src/foo/bar.cc", src, &fixed));
  EXPECT_NE(
      fixed.find("int count_ EEB_UNGUARDED(\"FIXME: annotate with "
                 "EEB_GUARDED_BY or justify\");"),
      std::string::npos);
  EXPECT_TRUE(Lint("src/foo/bar.cc", fixed).empty());
  std::string again;
  EXPECT_FALSE(ApplyFixes("src/foo/bar.cc", fixed, &again));
  EXPECT_EQ(again, fixed);
}

TEST(LintTest, FixRespectsScopeAndSuppressions) {
  // Entry-point trees are never rewritten.
  std::string fixed;
  EXPECT_FALSE(
      ApplyFixes("tools/x.cc", "void F(std::atomic<int>& a) { a.store(1); }\n",
                 &fixed));
  // A suppressed site keeps its deliberate default order.
  const std::string src =
      "void F(std::atomic<int>& a) {\n"
      "  a.store(1);  // eeb-lint: allow(atomic-misuse)\n"
      "}\n";
  EXPECT_FALSE(ApplyFixes("src/foo/bar.cc", src, &fixed));
  EXPECT_EQ(fixed, src);
}

}  // namespace
}  // namespace eeb::lint
