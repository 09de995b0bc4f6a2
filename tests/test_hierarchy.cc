/**
 * @file
 * Tests for the memory hierarchy: fetch/data paths, fill policies,
 * stats splitting, coherence effects, and the Config1/2/3 presets.
 */

#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

using namespace schedtask;

namespace
{

/** Cores of every hierarchy built here. */
constexpr unsigned kCores = 2;

/** Table 2 latencies: the constants in mem/hierarchy.cc, and the
 *  default HierarchyParams::llcLatency. */
constexpr Cycles kTlbWalk = 40;
constexpr Cycles kFrontendBubble = 14;
constexpr Cycles kL2Latency = 8;
constexpr Cycles kLlcLatency = 18;
constexpr Cycles kMemLatency = 200;

} // namespace

TEST(Hierarchy, FirstFetchMissesThenHits)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    const Cycles miss = h.fetch(0, 0x10000, ExecClass::Os);
    // Cold: iTLB walk + frontend bubble + L3 + memory.
    EXPECT_GT(miss, kMemLatency);
    const Cycles hit = h.fetch(0, 0x10000, ExecClass::Os);
    EXPECT_EQ(hit, 0u);
}

TEST(Hierarchy, SecondCoreFetchHitsLlc)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x10000, ExecClass::Os);
    const Cycles c1 = h.fetch(1, 0x10000, ExecClass::Os);
    // Core 1 misses privately but hits the shared LLC: cost must be
    // below a memory access.
    EXPECT_LT(c1, kMemLatency);
    EXPECT_GT(c1, 0u);
}

TEST(Hierarchy, StatsSplitByExecClass)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x10000, ExecClass::App);
    h.fetch(0, 0x10000, ExecClass::App);
    h.fetch(0, 0x20000, ExecClass::Os);
    EXPECT_EQ(h.iCounts(ExecClass::App).accesses, 2u);
    EXPECT_EQ(h.iCounts(ExecClass::App).hits, 1u);
    EXPECT_EQ(h.iCounts(ExecClass::Os).accesses, 1u);
    EXPECT_EQ(h.iCountsTotal().accesses, 3u);
}

TEST(Hierarchy, DataReadMostlyHiddenByOoo)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    const Cycles miss = h.data(0, 0x30000, false, ExecClass::App);
    // Exposed stall must be far below the raw L3+memory latency.
    EXPECT_LT(miss, (kLlcLatency + kMemLatency) / 2);
    const Cycles hit = h.data(0, 0x30000, false, ExecClass::App);
    EXPECT_EQ(hit, 0u);
}

TEST(Hierarchy, WritesExposeNoFillLatency)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    // Cold write: store buffer hides the miss (only dTLB walk may
    // expose a little).
    const Cycles w = h.data(0, 0x40000, true, ExecClass::Os);
    EXPECT_LE(w, kTlbWalk);
}

TEST(Hierarchy, RemoteDirtyFillCountsAndCosts)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.data(0, 0x50000, true, ExecClass::Os);  // core 0 owns dirty
    h.data(1, 0x50000, false, ExecClass::Os); // core 1 reads
    EXPECT_EQ(h.remoteDirtyFills(), 1u);
}

TEST(Hierarchy, WriteInvalidatesRemoteCopies)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.data(0, 0x60000, false, ExecClass::Os);
    h.data(1, 0x60000, false, ExecClass::Os);
    h.data(0, 0x60000, true, ExecClass::Os); // invalidates core 1
    EXPECT_GE(h.coherenceInvalidations(), 1u);
    // Core 1 must miss now.
    const Cycles c = h.data(1, 0x60000, false, ExecClass::Os);
    EXPECT_GT(c, 0u);
}

TEST(Hierarchy, InstallInstLinePrefetchesWithoutStats)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.installInstLine(0, 0x70000);
    EXPECT_TRUE(h.icacheContains(0, 0x70000));
    EXPECT_EQ(h.iCountsTotal().accesses, 0u);
    // The installed line hits on demand; only the iTLB walk (which
    // a prefetch does not warm) may cost anything.
    EXPECT_LE(h.fetch(0, 0x70000, ExecClass::Os), kTlbWalk);
    EXPECT_EQ(h.fetch(0, 0x70000, ExecClass::Os), 0u);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x80000, ExecClass::Os);
    h.resetStats();
    EXPECT_EQ(h.iCountsTotal().accesses, 0u);
    EXPECT_EQ(h.fetchStallCycles(), 0u);
    EXPECT_EQ(h.fetch(0, 0x80000, ExecClass::Os), 0u); // still cached
}

TEST(Hierarchy, StallCountersAccumulate)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x90000, ExecClass::Os);
    h.data(0, 0xa0000, false, ExecClass::Os);
    EXPECT_GT(h.fetchStallCycles(), 0u);
    EXPECT_GT(h.dataStallCycles(), 0u);
}

TEST(Hierarchy, Config1And2AreTwoLevel)
{
    EXPECT_FALSE(HierarchyParams::config1().hasPrivateL2);
    EXPECT_FALSE(HierarchyParams::config2().hasPrivateL2);
    EXPECT_TRUE(HierarchyParams::paperDefault().hasPrivateL2);
    EXPECT_EQ(HierarchyParams::paperDefault().llcLatency, kLlcLatency);
    EXPECT_EQ(HierarchyParams::config1().llcLatency, kLlcLatency);
    EXPECT_EQ(HierarchyParams::config2().llcLatency, 8u);
}

namespace
{

/** The preset with an L1I of `kb` KB (appendix Table 2). */
HierarchyParams
withL1IKb(std::uint64_t kb)
{
    HierarchyParams p = HierarchyParams::paperDefault();
    p.l1iBytes = kb * 1024;
    return p;
}

} // namespace

TEST(Hierarchy, PresetStallsPinned)
{
    // Literal exposed stalls of every hierarchy a figure builds, so
    // that no latency, hide factor or geometry changes unnoticed.
    // Each case runs on a fresh hierarchy and returns the stall of
    // its last access (for reuse9, the sum of its second pass).
    constexpr Addr a = 0x100000;
    const std::vector<std::pair<const char *,
                                std::function<Cycles(MemHierarchy &)>>>
        cases = {
            // iTLB walk 40 + bubble 14 + LLC + memory 200.
            {"cold fetch",
             [](MemHierarchy &h) { return h.fetch(0, a, ExecClass::Os); }},
            // iTLB walk + bubble + LLC.
            {"fetch hits LLC",
             [](MemHierarchy &h) {
                 h.fetch(0, a, ExecClass::Os);
                 return h.fetch(1, a, ExecClass::Os);
             }},
            // Four lines 16 KB apart evict `a` from any L1I size but
            // not from the L2: bubble + L2 8 (the LLC without one).
            {"fetch hits L2",
             [](MemHierarchy &h) {
                 for (Addr k = 0; k <= 4; ++k)
                     h.fetch(0, a + k * 16 * 1024, ExecClass::Os);
                 return h.fetch(0, a, ExecClass::Os);
             }},
            // Nine lines 4 KB apart, fetched twice: the second pass
            // misses the L1I 9, 5 and 0 times at 16, 32 and 64 KB.
            {"reuse9",
             [](MemHierarchy &h) {
                 for (Addr k = 0; k < 9; ++k)
                     h.fetch(0, a + k * 4096, ExecClass::Os);
                 Cycles second = 0;
                 for (Addr k = 0; k < 9; ++k)
                     second += h.fetch(0, a + k * 4096, ExecClass::Os);
                 return second;
             }},
            // dTLB walk 20 + llround(0.1 * (LLC + memory)).
            {"cold read",
             [](MemHierarchy &h) {
                 return h.data(0, a, false, ExecClass::Os);
             }},
            // dTLB walk + llround(0.1 * LLC).
            {"read hits LLC",
             [](MemHierarchy &h) {
                 h.data(0, a, false, ExecClass::Os);
                 return h.data(1, a, false, ExecClass::Os);
             }},
            // Four pages 128 KB apart share a's dTLB set but not its
            // L1D set: a's line hits, its translation walks.
            {"dTLB walk",
             [](MemHierarchy &h) {
                 for (Addr k = 0; k <= 4; ++k)
                     h.data(0, a + k * (128 * 1024 + 64), false,
                            ExecClass::Os);
                 return h.data(0, a, false, ExecClass::Os);
             }},
            // dTLB walk + remote fill 40 / 2.
            {"remote-dirty write",
             [](MemHierarchy &h) {
                 h.data(0, a, true, ExecClass::Os);
                 return h.data(1, a, true, ExecClass::Os);
             }},
        };
    const std::vector<std::pair<const char *, HierarchyParams>> presets = {
        {"paperDefault", HierarchyParams::paperDefault()},
        {"config1", HierarchyParams::config1()},
        {"config2", HierarchyParams::config2()},
        {"16 KB L1I", withL1IKb(16)},
        {"64 KB L1I", withL1IKb(64)},
    };
    // One row per preset, one column per case.
    const std::vector<std::vector<Cycles>> expected = {
        {272, 72, 22, 110, 42, 22, 20, 40},
        {272, 72, 32, 160, 42, 22, 20, 40},
        {262, 62, 22, 110, 41, 21, 20, 40},
        {272, 72, 22, 198, 42, 22, 20, 40},
        {272, 72, 22, 0, 42, 22, 20, 40},
    };
    for (std::size_t p = 0; p < presets.size(); ++p) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
            MemHierarchy h(presets[p].second, kCores);
            EXPECT_EQ(cases[c].second(h), expected[p][c])
                << presets[p].first << ", " << cases[c].first;
        }
    }
}

TEST(Hierarchy, TwoLevelConfigWorks)
{
    MemHierarchy h(HierarchyParams::config2(), kCores);
    const Cycles miss = h.fetch(0, 0x10000, ExecClass::Os);
    EXPECT_GT(miss, 0u);
    EXPECT_EQ(h.fetch(0, 0x10000, ExecClass::Os), 0u);
}

TEST(Hierarchy, FrontendBubbleChargedOnMiss)
{
    // Every L1I miss pays the frontend refill bubble on top of the
    // fill latency, whichever level fills it; a hit pays nothing.
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x10000, ExecClass::Os);
    h.fetch(1, 0x10040, ExecClass::Os); // warms core 1's iTLB
    EXPECT_EQ(h.fetch(1, 0x10000, ExecClass::Os),
              kFrontendBubble + kLlcLatency);
    // Four lines 16 KB apart evict 0x10000 from core 0's L1I only.
    for (Addr k = 1; k <= 4; ++k)
        h.fetch(0, 0x10000 + k * 16 * 1024, ExecClass::Os);
    EXPECT_EQ(h.fetch(0, 0x10000, ExecClass::Os),
              kFrontendBubble + kL2Latency);
    EXPECT_EQ(h.fetch(0, 0x10000, ExecClass::Os), 0u);
}

TEST(Hierarchy, TlbHitRatesAggregated)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.fetch(0, 0x10000, ExecClass::Os);
    h.fetch(0, 0x10040, ExecClass::Os); // same page: iTLB hit
    EXPECT_GT(h.itlbHitRate(), 0.0);
    EXPECT_LT(h.itlbHitRate(), 1.0);
}

TEST(Hierarchy, ResetStatsClearsTraceCacheAndPrefetcherCounters)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    h.enableTraceCaches(TraceCacheParams{});
    h.setPrefetcher(std::make_unique<CallGraphPrefetcher>(kCores));
    h.fetch(0, 0x10000, ExecClass::Os); // miss: builds + prefetches
    h.fetch(0, 0x10000, ExecClass::Os);
    ASSERT_NE(h.traceCache(0), nullptr);
    ASSERT_GT(h.traceCache(0)->accesses(), 0u);
    ASSERT_GT(h.prefetcher()->issued(), 0u);
    h.resetStats();
    // resetStats marks the end of warmup: every reported statistic
    // must restart, including the trace-cache and prefetcher ones.
    EXPECT_EQ(h.traceCache(0)->accesses(), 0u);
    EXPECT_EQ(h.traceCache(0)->hits(), 0u);
    EXPECT_EQ(h.prefetcher()->issued(), 0u);
}
