/**
 * @file
 * Tests for the per-core/system-wide stats tables (Section 5.2,
 * Figure 6): recording, aggregation semantics, breakup vectors.
 */

#include <gtest/gtest.h>

#include "core/stats_table.hh"
#include "workload/sf_catalog.hh"

using namespace schedtask;

namespace
{

PageHeatmap
heatmapWith(std::initializer_list<Addr> pfns, unsigned bits = 512)
{
    PageHeatmap hm(bits);
    for (Addr pf : pfns)
        hm.insertPfn(pf);
    return hm;
}

} // namespace

TEST(StatsTable, RecordAccumulates)
{
    StatsTable t(512);
    const SfType read = SfType::systemCall(3);
    t.record(read, nullptr, 100, 1000, heatmapWith({1}));
    t.record(read, nullptr, 50, 500, heatmapWith({2}));
    const StatsEntry *e = t.find(read);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->freq, 2u);
    EXPECT_EQ(e->execTime, 150u);
    EXPECT_EQ(e->insts, 1500u);
    EXPECT_EQ(e->avgExecTime(), 75u);
    // Heatmap is the OR of the slices.
    EXPECT_TRUE(e->heatmap.mightContainPfn(1));
    EXPECT_TRUE(e->heatmap.mightContainPfn(2));
}

TEST(StatsTable, FindMissingReturnsNull)
{
    StatsTable t(512);
    EXPECT_EQ(t.find(SfType::systemCall(3)), nullptr);
}

TEST(StatsTable, AggregationMatchesFigureSix)
{
    // Figure 6: global frequency = sum, global exec time = sum,
    // global heatmap = bitwise OR of per-core heatmaps.
    StatsTable core0(512), core1(512), global(512);
    const SfType sfb = SfType::systemCall(4);
    core0.record(sfb, nullptr, 5, 80, heatmapWith({10}));
    core1.record(sfb, nullptr, 5, 80, heatmapWith({20}));
    global.aggregateFrom(core0);
    global.aggregateFrom(core1);
    const StatsEntry *e = global.find(sfb);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->freq, 2u);
    EXPECT_EQ(e->execTime, 10u);
    EXPECT_TRUE(e->heatmap.mightContainPfn(10));
    EXPECT_TRUE(e->heatmap.mightContainPfn(20));
}

TEST(StatsTable, QueueWaitRecorded)
{
    StatsTable t(512);
    const SfType read = SfType::systemCall(3);
    t.recordWait(read, nullptr, 300);
    t.recordWait(read, nullptr, 200);
    ASSERT_NE(t.find(read), nullptr);
    EXPECT_EQ(t.find(read)->queueWait, 500u);
    // Waits alone do not count as executions.
    EXPECT_EQ(t.find(read)->freq, 0u);
}

TEST(StatsTable, WaitAggregates)
{
    StatsTable a(512), b(512), g(512);
    const SfType read = SfType::systemCall(3);
    a.recordWait(read, nullptr, 10);
    b.recordWait(read, nullptr, 20);
    g.aggregateFrom(a);
    g.aggregateFrom(b);
    EXPECT_EQ(g.find(read)->queueWait, 30u);
}

TEST(StatsTable, ClearEmpties)
{
    StatsTable t(512);
    t.record(SfType::systemCall(1), nullptr, 1, 1, heatmapWith({}));
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(SfType::systemCall(1)), nullptr);
    EXPECT_TRUE(t.typeOrder().empty());
}

TEST(StatsTable, InfoPointerKeptFromFirstRecord)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    StatsTable t(512);
    t.record(read.type, &read, 1, 1, heatmapWith({}));
    t.record(read.type, nullptr, 1, 1, heatmapWith({}));
    EXPECT_EQ(t.find(read.type)->info, &read);
}
