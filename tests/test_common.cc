/**
 * @file
 * Tests for the common substrate: deterministic RNG and the
 * statistical utilities the paper's methodology uses (cosine
 * similarity, Kendall tau-b, Jain fairness, geometric means).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/parse_num.hh"
#include "common/random.hh"
#include "common/types.hh"

using namespace schedtask;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.below(8)];
    for (int count : seen)
        EXPECT_GT(count, 700); // each bucket near 1000
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.inRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngOdds, MatchesChanceBitForBit)
{
    // Twin generators: chance(Odds(p)) must give chance(p)'s outcome
    // on every draw and consume exactly the same draws (none for
    // p <= 0 and p >= 1), so the streams end in the same state.
    const double probs[] = {-0.1, 0.0, 1e-300, 0x1.0p-53, 0.003, 0.2,
                            0.3, 0.35, 0.4, 0.5, 0.6, 0.9,
                            1.0 - 0x1.0p-53, 1.0, 1.5,
                            std::nan("")};
    for (const double p : probs) {
        SCOPED_TRACE(p);
        Rng plain(77);
        Rng resolved(77);
        const Rng::Odds odds(p);
        unsigned hits = 0;
        for (int i = 0; i < 100000; ++i) {
            const bool expected = plain.chance(p);
            ASSERT_EQ(resolved.chance(odds), expected) << i;
            hits += expected ? 1 : 0;
        }
        EXPECT_EQ(resolved(), plain());
        if (p > 0.01 && p < 0.99) {
            EXPECT_NEAR(hits / 100000.0, p, 0.01);
        }
    }

    // Thresholds exactly at and one step past the next draw, where a
    // floor instead of a ceil (or <= instead of <) would show.
    Rng rng(78);
    for (int i = 0; i < 10000; ++i) {
        Rng peek = rng;
        const double u = peek.uniform();
        const double above = std::nextafter(u, 1.0);
        for (const double p : {u, above}) {
            Rng plain = rng;
            Rng resolved = rng;
            ASSERT_EQ(resolved.chance(Rng::Odds(p)), plain.chance(p))
                << i << " p " << p;
        }
        ASSERT_FALSE(Rng(rng).chance(Rng::Odds(u))) << i;
        ASSERT_TRUE(Rng(rng).chance(Rng::Odds(above))) << i;
        rng();
    }
}

TEST(Rng, GeometricMeanApproximatesRequest)
{
    Rng rng(17);
    const double target = 50.0;
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(target));
    EXPECT_NEAR(sum / n, target, target * 0.05);
}

TEST(Rng, GeometricAtLeastOne)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.5), 1u);
}

TEST(Rng, TaskLengthMeanAndLowerDispersion)
{
    Rng rng(23);
    const double target = 1000.0;
    constexpr int n = 100000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = static_cast<double>(rng.taskLength(target));
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, target, target * 0.05);
    // Coefficient of variation must be well below exponential (1.0).
    EXPECT_LT(std::sqrt(var) / mean, 0.7);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(MathUtils, CosineIdenticalVectors)
{
    const std::vector<double> v = {1.0, 2.0, 3.0};
    EXPECT_NEAR(cosineSimilarity(v, v), 1.0, 1e-12);
}

TEST(MathUtils, CosineOrthogonalVectors)
{
    EXPECT_NEAR(cosineSimilarity({1.0, 0.0}, {0.0, 1.0}), 0.0, 1e-12);
}

TEST(MathUtils, CosineOppositeVectors)
{
    EXPECT_NEAR(cosineSimilarity({1.0, 1.0}, {-1.0, -1.0}), -1.0,
                1e-12);
}

TEST(MathUtils, CosineZeroVectorIsZero)
{
    EXPECT_EQ(cosineSimilarity({0.0, 0.0}, {1.0, 2.0}), 0.0);
}

TEST(MathUtils, KendallIdenticalRanking)
{
    const std::vector<double> a = {5, 4, 3, 2, 1};
    EXPECT_NEAR(kendallTauB(a, a), 1.0, 1e-12);
}

TEST(MathUtils, KendallReversedRanking)
{
    const std::vector<double> a = {5, 4, 3, 2, 1};
    const std::vector<double> b = {1, 2, 3, 4, 5};
    EXPECT_NEAR(kendallTauB(a, b), -1.0, 1e-12);
}

TEST(MathUtils, KendallConstantListIsZero)
{
    EXPECT_EQ(kendallTauB({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(MathUtils, KendallPartialAgreement)
{
    // One swapped pair out of C(4,2)=6: tau = (5-1)/6.
    const std::vector<double> a = {4, 3, 2, 1};
    const std::vector<double> b = {4, 3, 1, 2};
    EXPECT_NEAR(kendallTauB(a, b), 4.0 / 6.0, 1e-12);
}

TEST(MathUtils, JainFairnessEqualAllocations)
{
    EXPECT_NEAR(jainFairness({5, 5, 5, 5}), 1.0, 1e-12);
}

TEST(MathUtils, JainFairnessSingleHog)
{
    // One of n users gets everything: index = 1/n.
    EXPECT_NEAR(jainFairness({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(MathUtils, GeometricMeanBasic)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(MathUtils, GeometricMeanPercentMatchesPaperConvention)
{
    // +10% and -10% combine to sqrt(1.1*0.9)-1 = -0.504%.
    EXPECT_NEAR(geometricMeanPercent({10.0, -10.0}), -0.504, 0.01);
}

TEST(MathUtils, ArithmeticMeanEmptyIsZero)
{
    EXPECT_EQ(arithmeticMean({}), 0.0);
}

TEST(Types, AddressHelpers)
{
    const Addr addr = (5u << pageShift) | 0x7a5;
    EXPECT_EQ(pageFrameOf(addr), 5u);
    EXPECT_EQ(lineAddrOf(addr) % lineBytes, 0u);
    EXPECT_EQ(lineNumOf(lineBytes * 9), 9u);
}

TEST(ParseNum, UnsignedAcceptsPlainDigits)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("42"), 42u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              UINT64_MAX);
}

TEST(ParseNum, UnsignedRejectsGarbage)
{
    // std::atoi turned every one of these into a silent 0 or a
    // truncated prefix; the strict parser refuses them all.
    EXPECT_FALSE(parseUnsigned(""));
    EXPECT_FALSE(parseUnsigned("xyz"));
    EXPECT_FALSE(parseUnsigned("12abc"));
    EXPECT_FALSE(parseUnsigned("-1"));
    EXPECT_FALSE(parseUnsigned("+1"));
    EXPECT_FALSE(parseUnsigned(" 1"));
    EXPECT_FALSE(parseUnsigned("1 "));
    EXPECT_FALSE(parseUnsigned("0x10"));
    EXPECT_FALSE(parseUnsigned("1.5"));
    // One past UINT64_MAX overflows.
    EXPECT_FALSE(parseUnsigned("18446744073709551616"));
}

TEST(ParseNum, DoubleAcceptsDecimalGrammar)
{
    EXPECT_DOUBLE_EQ(*parseDouble("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(*parseDouble("-0.125"), -0.125);
    EXPECT_DOUBLE_EQ(*parseDouble("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(*parseDouble("7"), 7.0);
}

TEST(ParseNum, DoubleRejectsGarbageAndNonFinite)
{
    EXPECT_FALSE(parseDouble(""));
    EXPECT_FALSE(parseDouble("abc"));
    EXPECT_FALSE(parseDouble("1.5x"));
    EXPECT_FALSE(parseDouble(" 1.5"));
    EXPECT_FALSE(parseDouble("nan"));
    EXPECT_FALSE(parseDouble("inf"));
    EXPECT_FALSE(parseDouble("1e999"));
}

TEST(ParseNum, UnsignedFlagBoundsAndMessage)
{
    const FlagValue<std::uint64_t> ok = unsignedFlag("--cores", "32", 1, 64);
    EXPECT_EQ(ok.value, 32u);
    EXPECT_TRUE(ok.error.empty());
    EXPECT_TRUE(unsignedFlag("--cores", "1", 1, 64).error.empty());
    EXPECT_TRUE(unsignedFlag("--cores", "64", 1, 64).error.empty());
    // Below min, past max (a value too large for the flag's type is
    // rejected, not truncated) and malformed text all name the flag.
    for (const char *bad : {"0", "65", "4294967297", "xyz", ""}) {
        EXPECT_EQ(unsignedFlag("--cores", bad, 1, 64).error,
                  "invalid value '" + std::string(bad)
                      + "' for --cores (expected an unsigned integer "
                        "in [1, 64])");
    }
}

TEST(ParseNum, PositiveDoubleFlagRejectsZeroAndGarbage)
{
    const FlagValue<double> ok = positiveDoubleFlag("--scale", "1.5");
    EXPECT_DOUBLE_EQ(ok.value, 1.5);
    EXPECT_TRUE(ok.error.empty());
    for (const char *bad : {"0", "-1.5", "nan", "1e999", "2x"}) {
        EXPECT_EQ(positiveDoubleFlag("--scale", bad).error,
                  "invalid value '" + std::string(bad)
                      + "' for --scale (expected a number > 0)");
    }
}

// ---- Panic context ---------------------------------------------------

TEST(PanicContext, AppendedToPanicMessages)
{
    notePanicContext(3, 812500);
    notePanicSfType("read");
    EXPECT_DEATH(
        SCHEDTASK_PANIC("invariant tripped"),
        "invariant tripped \\[epoch 3, cycle 812500, sf read\\]");
    clearPanicContext();
}

TEST(PanicContext, SfNameIsOptional)
{
    notePanicContext(7, 42);
    notePanicSfType(nullptr);
    EXPECT_DEATH(SCHEDTASK_PANIC("boom"),
                 "boom \\[epoch 7, cycle 42\\]");
    clearPanicContext();
}

TEST(PanicContext, ClearedContextPrintsPlainMessage)
{
    clearPanicContext();
    EXPECT_DEATH(SCHEDTASK_PANIC("plain failure"),
                 "plain failure \\(");
}
