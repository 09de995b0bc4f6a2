/**
 * @file
 * Tests for the TMigrate algorithms (Section 5.3, Algorithm 1):
 * least-waiting-core selection and the two-level work stealing.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/tmigrate.hh"
#include "core/overlap_table.hh"
#include "core/stats_table.hh"
#include "workload/sf_catalog.hh"

using namespace schedtask;

namespace
{

struct TMigrateFixture : ::testing::Test
{
    TMigrateFixture()
    {
        queues.resize(4);
        backlog.assign(4, 0);
        view.queues = &queues;
        view.backlog = &backlog;
        // The owning scheduler's bookkeeping: debit the queue the
        // stolen SuperFunction sat in.
        view.onStolen = [this](SuperFunction *sf) {
            backlog[sf->coreId] -= cost(sf->type);
        };
    }

    Cycles
    cost(SfType t) const
    {
        auto it = avg.find(t.raw());
        return waitingCost(it == avg.end() ? 0 : it->second);
    }

    SuperFunction *
    makeSf(SfType type)
    {
        pool.push_back(std::make_unique<SuperFunction>());
        pool.back()->type = type;
        return pool.back().get();
    }

    void
    push(CoreId core, SfType type)
    {
        SuperFunction *sf = makeSf(type);
        sf->coreId = core;
        queues[core].push_back(sf);
        backlog[core] += cost(type);
    }

    std::vector<std::deque<SuperFunction *>> queues;
    std::vector<Cycles> backlog;
    std::vector<std::unique_ptr<SuperFunction>> pool;
    std::unordered_map<std::uint64_t, Cycles> avg;
    TMigrateView view;
};

const SfType typeA = SfType::systemCall(1);
const SfType typeB = SfType::systemCall(2);
const SfType typeC = SfType::systemCall(3);

} // namespace

TEST_F(TMigrateFixture, WaitingTimeSumsAverageExecTimes)
{
    avg[typeA.raw()] = 100;
    avg[typeB.raw()] = 300;
    push(0, typeA);
    push(0, typeB);
    EXPECT_EQ(view.waitingTime(0), 400u);
    EXPECT_EQ(view.waitingTime(1), 0u);
}

TEST_F(TMigrateFixture, UnknownTypesGetNominalCost)
{
    push(0, typeC); // no avg recorded
    EXPECT_EQ(view.waitingTime(0), unseenTypeCost);
    EXPECT_EQ(waitingCost(0), unseenTypeCost);
    EXPECT_EQ(waitingCost(7), 7u);
}

TEST_F(TMigrateFixture, StealsReportEveryRemovalForTheBacklog)
{
    // Each steal path hands every SuperFunction it erased to
    // onStolen, so the owner's backlog stays equal to a queue scan.
    avg[typeA.raw()] = 100;
    avg[typeB.raw()] = 300;
    AllocTable alloc;
    alloc.set(typeA, {0});
    for (int i = 0; i < 3; ++i) {
        push(1, typeA);
        push(2, typeB);
        push(2, typeA);
    }
    const auto scan = [this](CoreId c) {
        Cycles total = 0;
        for (const SuperFunction *sf : queues[c])
            total += cost(sf->type);
        return total;
    };
    ASSERT_NE(stealSameWork(view, alloc, 0), nullptr);
    EXPECT_FALSE(stealFromBusiest(view, 0).empty());
    for (CoreId c = 0; c < queues.size(); ++c)
        EXPECT_EQ(view.waitingTime(c), scan(c)) << "core " << c;
}

TEST_F(TMigrateFixture, SelectLeastWaitingCore)
{
    avg[typeA.raw()] = 100;
    push(1, typeA);
    push(1, typeA);
    push(2, typeA);
    EXPECT_EQ(selectLeastWaitingCore(view, {1, 2}), 2u);
    EXPECT_EQ(selectLeastWaitingCore(view, {1, 2, 3}), 3u);
}

TEST_F(TMigrateFixture, StealSameTakesMatchingType)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeB);
    push(1, typeA);
    SuperFunction *stolen = stealSameWork(view, alloc, 0);
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(stolen->type, typeA);
    EXPECT_EQ(queues[1].size(), 1u);
    EXPECT_EQ(queues[1].front()->type, typeB);
}

TEST_F(TMigrateFixture, StealSameReturnsNullWhenNoMatch)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeB);
    push(2, typeC);
    EXPECT_EQ(stealSameWork(view, alloc, 0), nullptr);
}

TEST_F(TMigrateFixture, StealSamePrefersMaxWaitingVictim)
{
    avg[typeA.raw()] = 100;
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeA);
    push(2, typeA);
    push(2, typeA); // core 2 waits longer
    SuperFunction *stolen = stealSameWork(view, alloc, 0);
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(queues[2].size(), 1u);
    EXPECT_EQ(queues[1].size(), 1u);
}

TEST_F(TMigrateFixture, StealSameRespectsFastRejectProbe)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeA);
    // A probe claiming nothing is queued suppresses the scan.
    view.queuedCount = [](SfType) -> std::size_t { return 0; };
    EXPECT_EQ(stealSameWork(view, alloc, 0), nullptr);
    view.queuedCount = [](SfType) -> std::size_t { return 1; };
    EXPECT_NE(stealSameWork(view, alloc, 0), nullptr);
}

TEST_F(TMigrateFixture, StealSimilarFollowsOverlapOrder)
{
    // Local type A overlaps B heavily and C barely; both queued:
    // the thief must take B.
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    const SfTypeInfo &recv = cat.byName("sys_recv");

    StatsTable stats(512);
    for (const SfTypeInfo *info : {&read, &pread, &recv}) {
        PageHeatmap hm(512);
        for (Addr line : info->code.lines())
            hm.insertAddr(line);
        stats.record(info->type, info, 100, 100, hm);
    }
    const OverlapTable overlap = OverlapTable::fromHeatmaps(stats);

    AllocTable alloc;
    alloc.set(read.type, {0});
    push(1, pread.type);
    push(2, recv.type);

    const auto stolen = stealSimilarWork(view, alloc, overlap, 0);
    ASSERT_EQ(stolen.size(), 1u);
    EXPECT_EQ(stolen[0]->type, pread.type);
}

TEST_F(TMigrateFixture, StealSimilarTakesHalf)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    StatsTable stats(512);
    for (const SfTypeInfo *info : {&read, &pread}) {
        PageHeatmap hm(512);
        for (Addr line : info->code.lines())
            hm.insertAddr(line);
        stats.record(info->type, info, 100, 100, hm);
    }
    const OverlapTable overlap = OverlapTable::fromHeatmaps(stats);

    AllocTable alloc;
    alloc.set(read.type, {0});
    for (int i = 0; i < 6; ++i)
        push(1, pread.type);

    const auto stolen = stealSimilarWork(view, alloc, overlap, 0);
    EXPECT_EQ(stolen.size(), 3u); // half of 6
    EXPECT_EQ(queues[1].size(), 3u);
}

TEST_F(TMigrateFixture, StealSimilarAtLeastOne)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    StatsTable stats(512);
    for (const SfTypeInfo *info : {&read, &pread}) {
        PageHeatmap hm(512);
        for (Addr line : info->code.lines())
            hm.insertAddr(line);
        stats.record(info->type, info, 100, 100, hm);
    }
    const OverlapTable overlap = OverlapTable::fromHeatmaps(stats);
    AllocTable alloc;
    alloc.set(read.type, {0});
    push(1, pread.type); // just one
    EXPECT_EQ(stealSimilarWork(view, alloc, overlap, 0).size(), 1u);
}

TEST_F(TMigrateFixture, StealBusiestIgnoresTypes)
{
    avg[typeA.raw()] = 100;
    avg[typeB.raw()] = 100;
    push(1, typeA);
    push(2, typeB);
    push(2, typeB);
    push(2, typeB);
    push(2, typeB);
    const auto stolen = stealFromBusiest(view, 0);
    EXPECT_EQ(stolen.size(), 2u); // half of the busiest queue (4)
    EXPECT_EQ(queues[2].size(), 2u);
}

TEST_F(TMigrateFixture, StealBusiestEmptySystemReturnsNothing)
{
    EXPECT_TRUE(stealFromBusiest(view, 0).empty());
}

TEST_F(TMigrateFixture, OnStolenCallbackInvoked)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeA);
    int callbacks = 0;
    view.onStolen = [&](SuperFunction *) { ++callbacks; };
    stealSameWork(view, alloc, 0);
    EXPECT_EQ(callbacks, 1);
}

TEST(StealPolicyNames, AllNamed)
{
    EXPECT_STREQ(stealPolicyName(StealPolicy::None), "Steal nothing");
    EXPECT_STREQ(stealPolicyName(StealPolicy::SameOnly),
                 "Steal same work only");
    EXPECT_STREQ(stealPolicyName(StealPolicy::SameAndSimilar),
                 "Steal similar work also");
    EXPECT_STREQ(stealPolicyName(StealPolicy::BusiestFirst),
                 "Steal from busiest");
}
