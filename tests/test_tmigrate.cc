/**
 * @file
 * Tests for the TMigrate algorithms (Section 5.3, Algorithm 1):
 * least-waiting-core selection and the two-level work stealing, run
 * as SchedTaskScheduler members on a small Machine's real queues.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/overlap_table.hh"
#include "core/schedtask_sched.hh"
#include "core/stats_table.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"
#include "workload/sf_catalog.hh"

using namespace schedtask;

namespace
{

/**
 * SchedTask with its TMigrate members reachable and per-type costs
 * taken from a table the test fills before queueing.
 */
class TMigrateProbe : public SchedTaskScheduler
{
  public:
    using SchedTaskScheduler::drainAllQueues;
    using SchedTaskScheduler::enqueue;
    using SchedTaskScheduler::queuedCountOf;
    using SchedTaskScheduler::queueOf;
    using SchedTaskScheduler::selectLeastWaitingCore;
    using SchedTaskScheduler::stealFromBusiest;
    using SchedTaskScheduler::stealSameWork;
    using SchedTaskScheduler::stealSimilarWork;

    /** Average execution time per type; absent = unseen. */
    std::map<std::uint64_t, Cycles> avg;

    Cycles
    queueCost(SfType type) const override
    {
        auto it = avg.find(type.raw());
        return waitingCost(it == avg.end() ? 0 : it->second);
    }
};

constexpr unsigned kCores = 4;

struct TMigrateFixture : ::testing::Test
{
    TMigrateFixture()
        : workload(Workload::buildSingle(suite, "Find", 1.0, kCores))
    {
        mp.numCores = kCores;
        machine = std::make_unique<Machine>(
            mp, HierarchyParams::paperDefault(), suite, workload, probe);
        // Start from empty queues: the machine queued its own
        // application SuperFunctions when it was built.
        probe.drainAllQueues();
    }

    void
    push(CoreId core, SfType type)
    {
        pool.push_back(std::make_unique<SuperFunction>());
        pool.back()->type = type;
        probe.enqueue(core, pool.back().get());
    }

    Cycles
    waitingTime(CoreId core) const
    {
        return probe.backlogs()[core];
    }

    BenchmarkSuite suite;
    Workload workload;
    MachineParams mp;
    TMigrateProbe probe;
    std::unique_ptr<Machine> machine;
    std::vector<std::unique_ptr<SuperFunction>> pool;
};

const SfType typeA = SfType::systemCall(1);
const SfType typeB = SfType::systemCall(2);
const SfType typeC = SfType::systemCall(3);

/** Overlap table over catalog types, from their code heatmaps. */
OverlapTable
overlapOf(const std::vector<const SfTypeInfo *> &infos)
{
    StatsTable stats(512);
    for (const SfTypeInfo *info : infos) {
        PageHeatmap hm(512);
        for (Addr line : info->code.lines())
            hm.insertAddr(line);
        stats.record(info->type, info, 100, 100, hm);
    }
    return OverlapTable::fromHeatmaps(stats);
}

} // namespace

TEST_F(TMigrateFixture, WaitingTimeSumsAverageExecTimes)
{
    probe.avg[typeA.raw()] = 100;
    probe.avg[typeB.raw()] = 300;
    push(0, typeA);
    push(0, typeB);
    EXPECT_EQ(waitingTime(0), 400u);
    EXPECT_EQ(waitingTime(1), 0u);
}

TEST_F(TMigrateFixture, UnknownTypesGetNominalCost)
{
    push(0, typeC); // no avg recorded
    EXPECT_EQ(waitingTime(0), unseenTypeCost);
    EXPECT_EQ(waitingCost(0), unseenTypeCost);
    EXPECT_EQ(waitingCost(7), 7u);
}

TEST_F(TMigrateFixture, StealsReportEveryRemovalForTheBacklog)
{
    // Every steal path removes through the queue owner, so the
    // backlog stays equal to a queue scan.
    probe.avg[typeA.raw()] = 100;
    probe.avg[typeB.raw()] = 300;
    AllocTable alloc;
    alloc.set(typeA, {0});
    for (int i = 0; i < 3; ++i) {
        push(1, typeA);
        push(2, typeB);
        push(2, typeA);
    }
    const auto scan = [this](CoreId c) {
        Cycles total = 0;
        for (const SuperFunction *sf : probe.queueOf(c))
            total += probe.queueCost(sf->type);
        return total;
    };
    ASSERT_NE(probe.stealSameWork(alloc, 0), nullptr);
    EXPECT_FALSE(probe.stealFromBusiest(0).empty());
    for (CoreId c = 0; c < kCores; ++c)
        EXPECT_EQ(waitingTime(c), scan(c)) << "core " << c;
    probe.checkInvariants();
}

TEST_F(TMigrateFixture, SelectLeastWaitingCore)
{
    probe.avg[typeA.raw()] = 100;
    push(1, typeA);
    push(1, typeA);
    push(2, typeA);
    EXPECT_EQ(probe.selectLeastWaitingCore({1, 2}), 2u);
    EXPECT_EQ(probe.selectLeastWaitingCore({1, 2, 3}), 3u);
}

TEST_F(TMigrateFixture, StealSameTakesMatchingType)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeB);
    push(1, typeA);
    SuperFunction *stolen = probe.stealSameWork(alloc, 0);
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(stolen->type, typeA);
    ASSERT_EQ(probe.queueOf(1).size(), 1u);
    EXPECT_EQ(probe.queueOf(1).front()->type, typeB);
}

TEST_F(TMigrateFixture, StealSameReturnsNullWhenNoMatch)
{
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeB);
    push(2, typeC);
    EXPECT_EQ(probe.stealSameWork(alloc, 0), nullptr);
}

TEST_F(TMigrateFixture, StealSamePrefersMaxWaitingVictim)
{
    probe.avg[typeA.raw()] = 100;
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(1, typeA);
    push(2, typeA);
    push(2, typeA); // core 2 waits longer
    SuperFunction *stolen = probe.stealSameWork(alloc, 0);
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(probe.queueOf(2).size(), 1u);
    EXPECT_EQ(probe.queueOf(1).size(), 1u);
}

TEST_F(TMigrateFixture, StealSameRespectsFastRejectProbe)
{
    // The fast reject reads the owner's per-type counts, which
    // include the thief's own queue but nothing already stolen.
    AllocTable alloc;
    alloc.set(typeA, {0});
    push(0, typeA);
    EXPECT_EQ(probe.queuedCountOf(typeA), 1u);
    EXPECT_EQ(probe.stealSameWork(alloc, 0), nullptr);
    push(1, typeA);
    EXPECT_NE(probe.stealSameWork(alloc, 0), nullptr);
    EXPECT_EQ(probe.queuedCountOf(typeA), 1u);
    EXPECT_EQ(probe.stealSameWork(alloc, 0), nullptr);
}

TEST_F(TMigrateFixture, StealSimilarFollowsOverlapOrder)
{
    // Local type A overlaps B heavily and C barely; both queued:
    // the thief must take B.
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    const SfTypeInfo &recv = cat.byName("sys_recv");
    const OverlapTable overlap = overlapOf({&read, &pread, &recv});

    AllocTable alloc;
    alloc.set(read.type, {0});
    push(1, pread.type);
    push(2, recv.type);

    const auto stolen = probe.stealSimilarWork(alloc, overlap, 0);
    ASSERT_EQ(stolen.size(), 1u);
    EXPECT_EQ(stolen[0]->type, pread.type);
}

TEST_F(TMigrateFixture, StealSimilarTakesHalf)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    const SfTypeInfo &recv = cat.byName("sys_recv");
    const OverlapTable overlap = overlapOf({&read, &pread});

    AllocTable alloc;
    alloc.set(read.type, {0});
    for (int i = 0; i < 6; ++i)
        push(1, pread.type);
    push(1, recv.type); // no overlap entry: stays

    const auto stolen = probe.stealSimilarWork(alloc, overlap, 0);
    ASSERT_EQ(stolen.size(), 3u); // half of 6
    // The first three matches, in queue order.
    for (std::size_t i = 0; i < stolen.size(); ++i)
        EXPECT_EQ(stolen[i], pool[i].get());
    EXPECT_EQ(probe.queueOf(1).size(), 4u);
    EXPECT_EQ(probe.queueOf(1).back()->type, recv.type);
}

TEST_F(TMigrateFixture, StealSimilarAtLeastOne)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    const OverlapTable overlap = overlapOf({&read, &pread});
    AllocTable alloc;
    alloc.set(read.type, {0});
    push(1, pread.type); // just one
    EXPECT_EQ(probe.stealSimilarWork(alloc, overlap, 0).size(), 1u);
}

TEST_F(TMigrateFixture, StealBusiestIgnoresTypes)
{
    probe.avg[typeA.raw()] = 100;
    probe.avg[typeB.raw()] = 100;
    push(1, typeA);
    push(2, typeB);
    push(2, typeB);
    push(2, typeB);
    push(2, typeB);
    const auto stolen = probe.stealFromBusiest(0);
    ASSERT_EQ(stolen.size(), 2u); // half of the busiest queue (4)
    // The tail half, last SuperFunction first.
    EXPECT_EQ(stolen[0], pool[4].get());
    EXPECT_EQ(stolen[1], pool[3].get());
    EXPECT_EQ(probe.queueOf(2).size(), 2u);
}

TEST_F(TMigrateFixture, StealBusiestEmptySystemReturnsNothing)
{
    EXPECT_TRUE(probe.stealFromBusiest(0).empty());
}

TEST_F(TMigrateFixture, StealDebitsTypeCountPerRemoval)
{
    SfCatalog cat;
    const SfTypeInfo &read = cat.byName("sys_read");
    const SfTypeInfo &pread = cat.byName("sys_pread");
    const OverlapTable overlap = overlapOf({&read, &pread});
    AllocTable alloc;
    alloc.set(read.type, {0});
    for (int i = 0; i < 4; ++i)
        push(1, pread.type);
    EXPECT_EQ(probe.stealSimilarWork(alloc, overlap, 0).size(), 2u);
    EXPECT_EQ(probe.queuedCountOf(pread.type), 2u);
    EXPECT_EQ(probe.stealFromBusiest(0).size(), 1u);
    EXPECT_EQ(probe.queuedCountOf(pread.type), 1u);
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
