/**
 * @file
 * Tests for TAlloc (Section 5.2): aggregation + clearing of
 * per-core tables, allocation stability under a steady breakup,
 * re-allocation on workload shifts, backlog correction, and
 * interrupt routing.
 */

#include <gtest/gtest.h>

#include "core/schedtask_sched.hh"
#include "core/talloc.hh"
#include "workload/sf_catalog.hh"

using namespace schedtask;

namespace
{

/** TAlloc as SchedTask builds it, from the given SchedTaskParams. */
TAlloc
makeTAlloc(unsigned cores, const SchedTaskParams &params = {})
{
    return TAlloc(cores, 512, params.useExactOverlap,
                  params.demandSmoothing);
}

/** Fill per-core tables with a fixed two-type breakup. */
void
fillEpoch(std::vector<StatsTable> &tables, Cycles app_time,
          Cycles sys_time)
{
    PageHeatmap hm(512);
    hm.insertPfn(1);
    for (StatsTable &t : tables) {
        t.record(SfType::application(7), nullptr, app_time, 100, hm);
        t.record(SfType::systemCall(3), nullptr, sys_time, 100, hm);
        t.record(SfType::interrupt(14), nullptr, sys_time / 4, 10,
                 hm);
    }
}

} // namespace

TEST(TAlloc, FirstRunAllocates)
{
    TAlloc talloc = makeTAlloc(8);
    std::vector<StatsTable> cores(8, StatsTable(512));
    fillEpoch(cores, 300, 100);
    const TAllocResult r = talloc.run(cores, AllocTable{});
    EXPECT_TRUE(r.reallocated);
    EXPECT_FALSE(r.alloc.empty());
    // Per-core tables were consumed (cleared for the next epoch).
    for (const StatsTable &t : cores)
        EXPECT_EQ(t.size(), 0u);
}

TEST(TAlloc, SystemStatsAggregated)
{
    TAlloc talloc = makeTAlloc(4);
    std::vector<StatsTable> cores(4, StatsTable(512));
    fillEpoch(cores, 300, 100);
    talloc.run(cores, AllocTable{});
    const StatsEntry *app =
        talloc.systemStats().find(SfType::application(7));
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->execTime, 4u * 300u);
    EXPECT_EQ(app->freq, 4u);
}

TEST(TAlloc, StableBreakupKeepsAllocation)
{
    TAlloc talloc = makeTAlloc(8);
    std::vector<StatsTable> cores(8, StatsTable(512));
    fillEpoch(cores, 300, 100);
    const TAllocResult first = talloc.run(cores, AllocTable{});
    fillEpoch(cores, 301, 99); // essentially identical
    const TAllocResult second = talloc.run(cores, first.alloc);
    EXPECT_FALSE(second.reallocated);
    EXPECT_GT(talloc.lastSimilarity(), 0.98);
}

TEST(TAlloc, ShiftedBreakupReallocates)
{
    TAlloc talloc = makeTAlloc(8);
    std::vector<StatsTable> cores(8, StatsTable(512));
    fillEpoch(cores, 300, 100);
    const TAllocResult first = talloc.run(cores, AllocTable{});
    // Invert the mix: syscalls now dominate by far.
    fillEpoch(cores, 50, 1000);
    const TAllocResult second = talloc.run(cores, first.alloc);
    EXPECT_TRUE(second.reallocated);
    const auto *sys_cores =
        second.alloc.coresFor(SfType::systemCall(3));
    const auto *app_cores =
        second.alloc.coresFor(SfType::application(7));
    ASSERT_NE(sys_cores, nullptr);
    ASSERT_NE(app_cores, nullptr);
    EXPECT_GT(sys_cores->size(), app_cores->size());
}

TEST(TAlloc, BacklogGrowsStarvedType)
{
    TAlloc talloc = makeTAlloc(8);
    std::vector<StatsTable> cores(8, StatsTable(512));
    fillEpoch(cores, 300, 100);
    const TAllocResult no_backlog = talloc.run(cores, AllocTable{});
    const std::size_t sys_before =
        no_backlog.alloc.coresFor(SfType::systemCall(3))->size();

    TAlloc talloc2 = makeTAlloc(8);
    std::vector<StatsTable> cores2(8, StatsTable(512));
    fillEpoch(cores2, 300, 100);
    // A deep queue of syscalls raises their demand.
    const TAllocResult with_backlog = talloc2.run(
        cores2, AllocTable{}, [](SfType t) -> std::size_t {
            return t == SfType::systemCall(3) ? 64 : 0;
        });
    const std::size_t sys_after =
        with_backlog.alloc.coresFor(SfType::systemCall(3))->size();
    EXPECT_GE(sys_after, sys_before);
}

TEST(TAlloc, InterruptRoutesReported)
{
    TAlloc talloc = makeTAlloc(8);
    std::vector<StatsTable> cores(8, StatsTable(512));
    fillEpoch(cores, 300, 100);
    const TAllocResult r = talloc.run(cores, AllocTable{});
    bool found = false;
    for (const IrqRoute &route : r.irqRoutes) {
        if (route.irq == 14) {
            found = true;
            EXPECT_LT(route.core, 8u);
            // Must be one of the cores allocated to the type.
            const auto *cores_of =
                r.alloc.coresFor(SfType::interrupt(14));
            ASSERT_NE(cores_of, nullptr);
            EXPECT_NE(std::find(cores_of->begin(), cores_of->end(),
                                route.core),
                      cores_of->end());
        }
    }
    EXPECT_TRUE(found);
}

TEST(TAlloc, EmptyEpochKeepsCurrentAllocation)
{
    TAlloc talloc = makeTAlloc(4);
    std::vector<StatsTable> cores(4, StatsTable(512));
    fillEpoch(cores, 100, 100);
    const TAllocResult first = talloc.run(cores, AllocTable{});
    // Nothing recorded this epoch (all cores idle).
    const TAllocResult second = talloc.run(cores, first.alloc);
    EXPECT_FALSE(second.reallocated);
    EXPECT_EQ(second.alloc.size(), first.alloc.size());
}

TEST(TAlloc, ExactOverlapModeBuildsFromFootprints)
{
    SfCatalog cat;
    SchedTaskParams params;
    params.useExactOverlap = true;
    TAlloc talloc = makeTAlloc(4, params);
    std::vector<StatsTable> cores(4, StatsTable(512));
    PageHeatmap empty(512);
    for (StatsTable &t : cores) {
        t.record(cat.byName("sys_read").type, &cat.byName("sys_read"),
                 100, 100, empty);
        t.record(cat.byName("sys_pread").type,
                 &cat.byName("sys_pread"), 100, 100, empty);
    }
    const TAllocResult r = talloc.run(cores, AllocTable{});
    // Even with empty heatmaps, exact mode sees the footprint
    // overlap.
    EXPECT_GT(r.overlap.overlapBetween(cat.byName("sys_read").type,
                                       cat.byName("sys_pread").type),
              0u);
}
