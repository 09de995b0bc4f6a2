/**
 * @file
 * schedtask-lint rule fixtures: every rule must reject its negative
 * snippet and accept the corresponding clean one, the lint:allow
 * pragma must silence exactly its rule, and the CLI entry point must
 * honour the multi-file exit-code contract (0 clean / 1 findings /
 * 2 usage or I/O error). Fixtures live inside raw strings, which the
 * linter scrubs, so this file stays clean under the repo-wide lint
 * test.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.hh"

using schedtask::lint::Diag;
using schedtask::lint::lintSource;
using schedtask::lint::runLint;

namespace
{

bool
hasRule(const std::vector<Diag> &diags, const std::string &rule)
{
    for (const Diag &d : diags)
        if (d.rule == rule)
            return true;
    return false;
}

} // namespace

// ---- DET-01: non-deterministic sources ------------------------------

TEST(LintDet01, RejectsStdRand)
{
    const auto diags = lintSource("src/sim/foo.cc", R"lint(
        int roll() { return std::rand() % 6; }
    )lint");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "DET-01");
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintDet01, RejectsRandomDeviceAndClocks)
{
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        std::random_device rd;
    )lint"), "DET-01"));
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        auto t0 = std::chrono::steady_clock::now();
    )lint"), "DET-01"));
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        std::mt19937 gen(42);
    )lint"), "DET-01"));
}

TEST(LintDet01, RejectsLibcTimeCall)
{
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        long now = time(nullptr);
    )lint"), "DET-01"));
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        long now = std::time(nullptr);
    )lint"), "DET-01"));
}

TEST(LintDet01, AcceptsMemberAndAccessorNames)
{
    // Core::clock() accessors, member .time() calls, and identifiers
    // merely containing the words must not match.
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        Cycles clock() const { return clock_; }
        void f(Core &core) { use(core.clock()); }
        void g(Timer *t) { use(t->time()); }
        double avgExecTime(int x) { return x * 2.0; }
    )lint").empty());
}

TEST(LintDet01, ExemptInRandomModule)
{
    EXPECT_TRUE(lintSource("src/common/random.cc", R"lint(
        std::random_device seedSource;
    )lint").empty());
}

TEST(LintDet01, IgnoresCommentsAndStrings)
{
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        // std::rand() would be wrong here
        const char *msg = "never call std::rand()";
    )lint").empty());
}

// ---- DET-02: unordered iteration in output writers ------------------

TEST(LintDet02, RejectsRangeForOverUnorderedInWriter)
{
    const auto diags = lintSource("src/harness/reporting.cc", R"lint(
        void dump(const std::unordered_map<int, int> &section) {
            for (const auto &kv : section)
                emit(kv.first, kv.second);
        }
    )lint");
    EXPECT_TRUE(hasRule(diags, "DET-02"));
}

TEST(LintDet02, RejectsIteratorLoopOverUnordered)
{
    const auto diags = lintSource("src/stats/table.cc", R"lint(
        void dump(const std::unordered_set<int> &keys) {
            for (auto it = keys.begin(); it != keys.end(); ++it)
                emit(*it);
        }
    )lint");
    EXPECT_TRUE(hasRule(diags, "DET-02"));
}

TEST(LintDet02, AcceptsWhenBodyFeedsSortedMap)
{
    EXPECT_TRUE(lintSource("src/harness/reporting.cc", R"lint(
        void dump(const std::unordered_map<int, int> &section) {
            std::map<int, int> sorted;
            for (const auto &kv : section)
                sorted[kv.first] = kv.second;
            for (const auto &kv : sorted)
                emit(kv.first, kv.second);
        }
    )lint").empty());
}

TEST(LintDet02, AcceptsWhenCollectedKeysAreSorted)
{
    EXPECT_TRUE(lintSource("src/harness/trace_export.cc", R"lint(
        void dump(const std::unordered_map<int, int> &section) {
            std::vector<int> keys;
            for (const auto &kv : section)
                keys.push_back(kv.first);
            std::sort(keys.begin(), keys.end());
        }
    )lint").empty());
}

TEST(LintDet02, OnlyAppliesToOutputWritingFiles)
{
    EXPECT_TRUE(lintSource("src/sim/machine.cc", R"lint(
        void scan(const std::unordered_map<int, int> &m) {
            for (const auto &kv : m)
                accumulate(kv.second);
        }
    )lint").empty());
}

TEST(LintDet02, TracksVariablesDeclaredUnordered)
{
    const auto diags = lintSource("src/harness/reporting.cc", R"lint(
        std::unordered_map<int, int> histogram;
        void dump() {
            for (const auto &kv : histogram)
                emit(kv.first);
        }
    )lint");
    EXPECT_TRUE(hasRule(diags, "DET-02"));
}

// ---- SAFE-01: silent numeric parsing --------------------------------

TEST(LintSafe01, RejectsAtoiFamily)
{
    EXPECT_TRUE(hasRule(lintSource("tools/foo.cc", R"lint(
        int n = atoi(argv[1]);
    )lint"), "SAFE-01"));
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        long n = std::strtol(s, nullptr, 10);
    )lint"), "SAFE-01"));
}

TEST(LintSafe01, RejectsThrowingStoFamily)
{
    EXPECT_TRUE(hasRule(lintSource("examples/foo.cpp", R"lint(
        const double scale = argc > 2 ? std::stod(argv[2]) : 2.0;
    )lint"), "SAFE-01"));
    EXPECT_TRUE(lintSource("tools/foo.cc", R"lint(
        // lint:allow(SAFE-01) caller catches std::invalid_argument
        unsigned long n = std::stoul(text);
    )lint").empty());
}

TEST(LintSafe01, ExemptInParseNum)
{
    EXPECT_TRUE(lintSource("src/common/parse_num.cc", R"lint(
        double v = std::strtod(copy.c_str(), &end);
    )lint").empty());
}

TEST(LintSafe01, AcceptsDistinctIdentifiers)
{
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        int myatoi(const char *s);
        int n = myatoi(text);
    )lint").empty());
}

// ---- SAFE-02: abort() and redundant virtual -------------------------

TEST(LintSafe02, RejectsAbortCall)
{
    EXPECT_TRUE(hasRule(lintSource("src/sim/foo.cc", R"lint(
        void die() { std::abort(); }
    )lint"), "SAFE-02"));
    EXPECT_TRUE(hasRule(lintSource("tools/foo.cc", R"lint(
        void die() { abort(); }
    )lint"), "SAFE-02"));
}

TEST(LintSafe02, ExemptInLoggingAndForMembers)
{
    EXPECT_TRUE(lintSource("src/common/logging.cc", R"lint(
        void panicImpl() { std::abort(); }
    )lint").empty());
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        void stop(Run *run) { run->abort(); }
    )lint").empty());
}

TEST(LintSafe02, RejectsRedundantVirtualOnOverride)
{
    const auto diags = lintSource("src/sched/foo.hh", R"lint(
        virtual void onEpoch() override;
    )lint");
    EXPECT_TRUE(hasRule(diags, "SAFE-02"));
}

TEST(LintSafe02, AcceptsPlainVirtualAndPlainOverride)
{
    const auto diags = lintSource("src/sched/foo.cc", R"lint(
        virtual void onEpoch();
        void onQuantum() override;
    )lint");
    EXPECT_FALSE(hasRule(diags, "SAFE-02"));
}

// ---- STY-01: header guard naming ------------------------------------

TEST(LintSty01, AcceptsCanonicalGuard)
{
    EXPECT_TRUE(lintSource("src/sim/widget.hh", R"lint(
#ifndef SCHEDTASK_SIM_WIDGET_HH
#define SCHEDTASK_SIM_WIDGET_HH
#endif
    )lint").empty());
}

TEST(LintSty01, StripsLeadingSrcOnly)
{
    EXPECT_TRUE(lintSource("tools/widget.hh", R"lint(
#ifndef SCHEDTASK_TOOLS_WIDGET_HH
#define SCHEDTASK_TOOLS_WIDGET_HH
#endif
    )lint").empty());
}

TEST(LintSty01, RejectsWrongGuardName)
{
    const auto diags = lintSource("src/sim/widget.hh", R"lint(
#ifndef WIDGET_H
#define WIDGET_H
#endif
    )lint");
    ASSERT_TRUE(hasRule(diags, "STY-01"));
}

TEST(LintSty01, RejectsMissingGuard)
{
    const auto diags = lintSource("src/sim/widget.hh", R"lint(
        struct Widget {};
    )lint");
    ASSERT_TRUE(hasRule(diags, "STY-01"));
}

TEST(LintSty01, DoesNotApplyToSourceFiles)
{
    EXPECT_TRUE(lintSource("src/sim/widget.cc", R"lint(
        struct Widget {};
    )lint").empty());
}

// ---- SIMD-01: no intrinsics anywhere ------------------------------

TEST(LintSimd01, RejectsIntrinsicsOutsideSimdLayer)
{
    const auto diags = lintSource("src/core/page_heatmap.cc", R"lint(
        unsigned weight(const __m256i *w) {
            return _mm256_extract_epi64(*w, 0);
        }
    )lint");
    ASSERT_TRUE(hasRule(diags, "SIMD-01"));
}

TEST(LintSimd01, RejectsAvxFeatureMacroAndInclude)
{
    EXPECT_TRUE(hasRule(lintSource("src/mem/cache.hh", R"lint(
        #ifdef __AVX2__
        #endif
    )lint"), "SIMD-01"));
    EXPECT_TRUE(hasRule(lintSource("src/sim/core.cc", R"lint(
        #include <immintrin.h>
    )lint"), "SIMD-01"));
    EXPECT_TRUE(hasRule(lintSource("bench/fig07_app_performance.cc", R"lint(
        __m512i acc = _mm512_setzero_si512();
    )lint"), "SIMD-01"));
}

TEST(LintSimd01, RejectsInCommonHeader)
{
    // No file is exempt, not even a header that calls itself the
    // kernel layer (guard lines keep STY-01 quiet).
    EXPECT_TRUE(hasRule(lintSource("src/common/simd.hh", R"lint(
        #ifndef SCHEDTASK_COMMON_SIMD_HH
        #define SCHEDTASK_COMMON_SIMD_HH
        #include <immintrin.h>
        inline __m256i andWords(__m256i a, __m256i b) {
            return _mm256_and_si256(a, b);
        }
        #endif
    )lint"), "SIMD-01"));
}

TEST(LintSimd01, AcceptsSimdySpellings)
{
    // Identifiers that merely mention simd or vector widths are not
    // intrinsics.
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        SimdKernels k = activeSimd();
        unsigned mm256 = bits / 2;
        int simd_level = 2;
    )lint").empty());
}

// ---- lint:allow pragma ----------------------------------------------

TEST(LintAllow, SilencesOnSameLine)
{
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        auto t = std::chrono::steady_clock::now(); // lint:allow(DET-01) progress only
    )lint").empty());
}

TEST(LintAllow, SilencesOnNextLine)
{
    EXPECT_TRUE(lintSource("src/sim/foo.cc", R"lint(
        // lint:allow(DET-01) wall-clock is for progress display
        auto t = std::chrono::steady_clock::now();
    )lint").empty());
}

TEST(LintAllow, OnlySilencesItsOwnRule)
{
    const auto diags = lintSource("src/sim/foo.cc", R"lint(
        // lint:allow(SAFE-01) wrong rule named
        auto t = std::chrono::steady_clock::now();
    )lint");
    EXPECT_TRUE(hasRule(diags, "DET-01"));
}

TEST(LintAllow, DoesNotLeakPastNextLine)
{
    const auto diags = lintSource("src/sim/foo.cc", R"lint(
        // lint:allow(DET-01) covers the next line only
        int keep = 1;
        auto t = std::chrono::steady_clock::now();
    )lint");
    EXPECT_TRUE(hasRule(diags, "DET-01"));
}

TEST(LintAllow, ReasonIsMandatory)
{
    const auto diags = lintSource("src/sim/foo.cc", R"lint(
        auto t = std::chrono::steady_clock::now(); // lint:allow(DET-01)
    )lint");
    // The bare pragma is itself a finding, and it does not suppress.
    EXPECT_TRUE(hasRule(diags, "LINT-00"));
    EXPECT_TRUE(hasRule(diags, "DET-01"));
}

// ---- CLI behaviour ---------------------------------------------------

namespace
{

class LintCliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process: ctest runs each test in its own
        // process and may run several LintCliTest cases in
        // parallel, so a shared fixed directory races one test's
        // TearDown against another's file writes.
        dir_ = std::filesystem::path(::testing::TempDir())
            / ("schedtask_lint_cli." + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    write(const std::string &rel, const std::string &content)
    {
        const std::filesystem::path p = dir_ / rel;
        std::filesystem::create_directories(p.parent_path());
        std::ofstream(p) << content;
        return p.string();
    }

    int
    run(const std::vector<std::string> &args)
    {
        out_.str("");
        err_.str("");
        return runLint(args, out_, err_);
    }

    std::filesystem::path dir_;
    std::ostringstream out_;
    std::ostringstream err_;
};

const char *kCleanSource = "int add(int a, int b) { return a + b; }\n";
const char *kDirtySource = "int n = atoi(s);\n";

} // namespace

TEST_F(LintCliTest, CleanFilesExitZero)
{
    const auto a = write("a.cc", kCleanSource);
    const auto b = write("b.cc", kCleanSource);
    EXPECT_EQ(run({a, b}), 0);
    EXPECT_TRUE(out_.str().empty());
}

TEST_F(LintCliTest, AnyDirtyFileExitsOneAndReportsAll)
{
    const auto a = write("a.cc", kCleanSource);
    const auto b = write("b.cc", kDirtySource);
    const auto c = write("c.cc", kDirtySource);
    EXPECT_EQ(run({a, b, c}), 1);
    const std::string out = out_.str();
    EXPECT_NE(out.find("b.cc"), std::string::npos);
    EXPECT_NE(out.find("c.cc"), std::string::npos);
    EXPECT_NE(out.find("SAFE-01"), std::string::npos);
    EXPECT_NE(err_.str().find("2 finding(s)"), std::string::npos);
}

TEST_F(LintCliTest, MissingFileExitsTwo)
{
    EXPECT_EQ(run({(dir_ / "no_such.cc").string()}), 2);
}

TEST_F(LintCliTest, UnknownOptionExitsTwo)
{
    EXPECT_EQ(run({"--frobnicate"}), 2);
}

TEST_F(LintCliTest, NoArgumentsExitsTwo)
{
    EXPECT_EQ(run({}), 2);
}

TEST_F(LintCliTest, RootScansOnlySourceTrees)
{
    write("src/dirty.cc", kDirtySource);
    write("thirdparty/ignored.cc", kDirtySource);
    EXPECT_EQ(run({"--root", dir_.string()}), 1);
    const std::string out = out_.str();
    EXPECT_NE(out.find("src/dirty.cc"), std::string::npos);
    EXPECT_EQ(out.find("ignored.cc"), std::string::npos);
}

TEST_F(LintCliTest, RootReportsRepoRelativePaths)
{
    write("tests/dirty.cc", kDirtySource);
    EXPECT_EQ(run({"--root", dir_.string()}), 1);
    EXPECT_NE(out_.str().find("tests/dirty.cc:1:"),
              std::string::npos);
}

TEST_F(LintCliTest, RootScansExamples)
{
    write("examples/dirty.cpp", kDirtySource);
    EXPECT_EQ(run({"--root", dir_.string()}), 1);
    EXPECT_NE(out_.str().find("examples/dirty.cpp:1:"),
              std::string::npos);
}
