/**
 * @file
 * Tests for the Page-heatmap Bloom filter (Section 3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "core/page_heatmap.hh"

using namespace schedtask;

TEST(PageHeatmap, StartsEmpty)
{
    PageHeatmap hm(512);
    EXPECT_TRUE(hm.empty());
    EXPECT_EQ(hm.popcount(), 0u);
}

TEST(PageHeatmap, NoFalseNegatives)
{
    PageHeatmap hm(512);
    Rng rng(42);
    std::vector<Addr> pfns;
    for (int i = 0; i < 100; ++i)
        pfns.push_back(rng());
    for (Addr pf : pfns)
        hm.insertPfn(pf);
    for (Addr pf : pfns)
        EXPECT_TRUE(hm.mightContainPfn(pf));
}

TEST(PageHeatmap, PaperHashUsesAllPfnBits)
{
    // Two PFNs differing only in bit 50 must hash differently
    // (the five 9-bit shifts fold the high bits in).
    const Addr a = 0x1;
    const Addr b = a | (Addr{1} << 50);
    EXPECT_NE(PageHeatmap::hashPfn(a) % 512,
              PageHeatmap::hashPfn(b) % 512);
}

TEST(PageHeatmap, HashMatchesPaperFormula)
{
    const Addr pf = 0x123456789abull;
    const std::uint64_t expect = pf + (pf >> 9) + (pf >> 18)
        + (pf >> 27) + (pf >> 36) + (pf >> 45);
    EXPECT_EQ(PageHeatmap::hashPfn(pf), expect);
}

TEST(PageHeatmap, InsertAddrUsesPageFrame)
{
    PageHeatmap a(512), b(512);
    a.insertAddr(0x5000);
    b.insertPfn(0x5);
    EXPECT_EQ(a, b);
}

TEST(PageHeatmap, ClearZeroesEverything)
{
    PageHeatmap hm(512);
    hm.insertPfn(123);
    EXPECT_FALSE(hm.empty());
    hm.clear();
    EXPECT_TRUE(hm.empty());
}

TEST(PageHeatmap, OrWithIsUnion)
{
    PageHeatmap a(512), b(512), u(512);
    a.insertPfn(1);
    b.insertPfn(2);
    u.insertPfn(1);
    u.insertPfn(2);
    a.orWith(b);
    EXPECT_EQ(a, u);
}

TEST(PageHeatmap, OverlapCountsCommonBits)
{
    PageHeatmap a(512), b(512);
    a.insertPfn(10);
    a.insertPfn(11);
    b.insertPfn(11);
    b.insertPfn(12);
    // Exactly the bit of PFN 11 is common (no collisions among
    // three small PFNs in 512 bits).
    EXPECT_EQ(a.overlap(b), 1u);
}

TEST(PageHeatmap, OverlapOfDisjointSetsIsSmall)
{
    PageHeatmap a(512), b(512);
    for (Addr pf = 0; pf < 20; ++pf)
        a.insertPfn(pf);
    for (Addr pf = 1000; pf < 1020; ++pf)
        b.insertPfn(pf);
    EXPECT_LE(a.overlap(b), 2u); // collisions only
}

TEST(PageHeatmap, SharedSubsetDetected)
{
    // read/pread style: 80% common pages -> overlap close to the
    // common count.
    PageHeatmap a(512), b(512);
    for (Addr pf = 0; pf < 40; ++pf)
        a.insertPfn(pf);
    for (Addr pf = 8; pf < 48; ++pf)
        b.insertPfn(pf);
    EXPECT_GE(a.overlap(b), 28u);
    EXPECT_LE(a.overlap(b), 34u);
}

class HeatmapWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HeatmapWidth, SaturationGrowsWithInserts)
{
    PageHeatmap hm(GetParam());
    Rng rng(7);
    unsigned last = 0;
    for (int batch = 0; batch < 4; ++batch) {
        for (int i = 0; i < 32; ++i)
            hm.insertPfn(rng());
        EXPECT_GE(hm.popcount(), last);
        last = hm.popcount();
        EXPECT_LE(hm.popcount(), GetParam());
    }
}

TEST_P(HeatmapWidth, WiderFiltersCollideLess)
{
    // Insert 64 random PFNs into a filter of each width; the
    // popcount (distinct bits) must not decrease with width.
    Rng rng(11);
    std::vector<Addr> pfns;
    for (int i = 0; i < 64; ++i)
        pfns.push_back(rng());
    PageHeatmap narrow(128), wide(GetParam());
    for (Addr pf : pfns) {
        narrow.insertPfn(pf);
        wide.insertPfn(pf);
    }
    if (GetParam() >= 128) {
        EXPECT_GE(wide.popcount(), narrow.popcount());
    }
}

TEST_P(HeatmapWidth, WordLoopsMatchNaiveBits)
{
    // orWith/overlap/popcount/clear against a per-bit reference.
    // Bits are set through insertPfn with frames chosen to hash to
    // each bit index, so every bit of the filter is reachable.
    const unsigned bits = GetParam();
    std::vector<Addr> pfn_of(bits);
    std::vector<bool> found(bits, false);
    unsigned reached = 0;
    for (Addr pfn = 0; reached < bits; ++pfn) {
        const std::uint64_t bit = PageHeatmap::hashPfn(pfn) & (bits - 1);
        if (!found[bit]) {
            found[bit] = true;
            pfn_of[bit] = pfn;
            ++reached;
        }
    }
    const auto fill = [&](PageHeatmap &hm, std::vector<bool> &ref,
                          Rng &rng, double density) {
        for (unsigned b = 0; b < bits; ++b) {
            ref[b] = rng.chance(density);
            if (ref[b])
                hm.insertPfn(pfn_of[b]);
        }
    };
    const auto count = [](const std::vector<bool> &v) {
        return static_cast<unsigned>(std::count(v.begin(), v.end(), true));
    };

    Rng rng(bits);
    for (double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
        PageHeatmap a(bits), b(bits);
        std::vector<bool> ra(bits), rb(bits), both(bits), either(bits);
        fill(a, ra, rng, density);
        fill(b, rb, rng, 1.0 - density / 2);
        for (unsigned i = 0; i < bits; ++i) {
            both[i] = ra[i] && rb[i];
            either[i] = ra[i] || rb[i];
        }
        ASSERT_EQ(a.popcount(), count(ra)) << "density " << density;
        ASSERT_EQ(a.overlap(b), count(both)) << "density " << density;
        ASSERT_EQ(b.overlap(a), count(both)) << "density " << density;

        a.orWith(b);
        ASSERT_EQ(a.popcount(), count(either)) << "density " << density;
        for (unsigned i = 0; i < bits; ++i)
            ASSERT_EQ(a.mightContainPfn(pfn_of[i]), either[i]) << i;

        a.clear();
        EXPECT_TRUE(a.empty());
        EXPECT_EQ(a.popcount(), 0u);
        EXPECT_EQ(a.overlap(b), 0u);
    }

    // All-zero and all-one edges.
    PageHeatmap zero(bits), ones(bits);
    for (Addr pfn : pfn_of)
        ones.insertPfn(pfn);
    EXPECT_EQ(zero.popcount(), 0u);
    EXPECT_EQ(ones.popcount(), bits);
    EXPECT_EQ(ones.overlap(ones), bits);
    EXPECT_EQ(ones.overlap(zero), 0u);
    zero.orWith(ones);
    EXPECT_EQ(zero, ones);
}

INSTANTIATE_TEST_SUITE_P(Widths, HeatmapWidth,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048,
                                           4096, 8192, 16384, 32768,
                                           65536));

TEST(PageHeatmapDeath, MismatchedWidthsPanic)
{
    PageHeatmap a(128), b(256);
    EXPECT_DEATH(a.overlap(b), "widths");
    EXPECT_DEATH(a.orWith(b), "widths");
}

TEST(PageHeatmapDeath, NonPowerOfTwoWidthPanics)
{
    EXPECT_DEATH(PageHeatmap hm(500), "power of two");
}
