/**
 * @file
 * Tests for the TLB model.
 */

#include <gtest/gtest.h>

#include "common/types.hh"
#include "mem/tlb.hh"

using namespace schedtask;

TEST(Tlb, MissPaysPenaltyHitIsFree)
{
    Tlb tlb(TlbParams{16, 4, 40});
    EXPECT_EQ(tlb.translate(0x1000), 40u);
    EXPECT_EQ(tlb.translate(0x1000), 0u);
    EXPECT_EQ(tlb.translate(0x1fff), 0u); // same page
    EXPECT_EQ(tlb.translate(0x2000), 40u); // next page
}

TEST(Tlb, HitRateAccounting)
{
    Tlb tlb(TlbParams{16, 4, 40});
    tlb.translate(0x1000); // miss
    tlb.translate(0x1000); // hit
    tlb.translate(0x1000); // hit
    EXPECT_EQ(tlb.accesses(), 3u);
    EXPECT_EQ(tlb.hits(), 2u);
    EXPECT_NEAR(tlb.hitRate(), 2.0 / 3.0, 1e-12);
}

TEST(Tlb, HitRateOneWhenUnused)
{
    Tlb tlb(TlbParams{16, 4, 40});
    EXPECT_EQ(tlb.hitRate(), 1.0);
}

TEST(Tlb, CapacityEviction)
{
    // 4-entry fully-conflicting: entries 4 pages apart with assoc 4
    // and 1 set... use a 4-entry TLB with assoc 4 = fully assoc.
    Tlb tlb(TlbParams{4, 4, 40});
    for (Addr p = 0; p < 5; ++p)
        tlb.translate(p * pageBytes);
    // Page 0 was LRU and must have been evicted by page 4.
    EXPECT_EQ(tlb.translate(0), 40u);
}

TEST(Tlb, ResetStatsKeepsContents)
{
    Tlb tlb(TlbParams{16, 4, 40});
    tlb.translate(0x1000);
    tlb.resetStats();
    EXPECT_EQ(tlb.accesses(), 0u);
    // Translation still cached: the next access hits.
    EXPECT_EQ(tlb.translate(0x1000), 0u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, PaperGeometry128Entries)
{
    Tlb tlb(TlbParams{128, 4, 40});
    // Touch 128 distinct pages with a sequential pattern: all fit.
    for (Addr p = 0; p < 128; ++p)
        tlb.translate(p * pageBytes);
    for (Addr p = 0; p < 128; ++p)
        EXPECT_EQ(tlb.translate(p * pageBytes), 0u) << p;
}
