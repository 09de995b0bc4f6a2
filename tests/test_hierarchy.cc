/**
 * @file
 * Tests for the memory hierarchy: fetch/data paths, fill policies,
 * stats splitting, coherence effects, and the Config1/2/3 presets.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

using namespace schedtask;

namespace
{

/** Cores of every hierarchy built here. */
constexpr unsigned kCores = 2;

} // namespace

TEST(Hierarchy, FirstFetchMissesThenHits)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    const Cycles miss = h.fetch(0, 0x10000, ExecClass::Os);
    // Cold: iTLB walk + frontend bubble + L3 + memory.
    EXPECT_GT(miss, h.params().memLatency);
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
    EXPECT_LT(c1, h.params().memLatency);
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
    HierarchyParams p = HierarchyParams::paperDefault();
    p.dataHideFactor = 0.9;
    MemHierarchy h(p, kCores);
    const Cycles miss = h.data(0, 0x30000, false, ExecClass::App);
    // Exposed stall must be far below the raw L3+memory latency.
    EXPECT_LT(miss, (p.llc.latency + p.memLatency) / 2);
    const Cycles hit = h.data(0, 0x30000, false, ExecClass::App);
    EXPECT_EQ(hit, 0u);
}

TEST(Hierarchy, WritesExposeNoFillLatency)
{
    MemHierarchy h(HierarchyParams::paperDefault(), kCores);
    // Cold write: store buffer hides the miss (only dTLB walk may
    // expose a little).
    const Cycles w = h.data(0, 0x40000, true, ExecClass::Os);
    EXPECT_LE(w, h.params().dtlb.missPenalty);
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
    EXPECT_LE(h.fetch(0, 0x70000, ExecClass::Os),
              h.params().itlb.missPenalty);
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
    EXPECT_EQ(HierarchyParams::config1().llc.latency, 18u);
    EXPECT_EQ(HierarchyParams::config2().llc.latency, 8u);
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
    HierarchyParams with = HierarchyParams::paperDefault();
    with.frontendBubbleCycles = 50;
    HierarchyParams without = HierarchyParams::paperDefault();
    without.frontendBubbleCycles = 0;
    MemHierarchy hw(with, kCores), ho(without, kCores);
    const Cycles cw = hw.fetch(0, 0x10000, ExecClass::Os);
    const Cycles co = ho.fetch(0, 0x10000, ExecClass::Os);
    EXPECT_EQ(cw, co + 50);
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
