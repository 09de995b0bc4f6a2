/**
 * @file
 * Differential tests of TMigrate's running backlog. After every queue
 * operation, QueueScheduler::backlogs() must equal the waiting time
 * recomputed by scanning each queue and summing the per-SuperFunction
 * cost — the scan TMigrate performed before the backlog existed,
 * kept here as the oracle.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/schedtask_sched.hh"
#include "core/tmigrate.hh"
#include "harness/experiment.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** The pre-backlog waiting-time scan of one queue. */
Cycles
oracleWaitingTime(const std::deque<SuperFunction *> &queue,
                  const std::map<std::uint64_t, Cycles> &avg)
{
    Cycles total = 0;
    for (const SuperFunction *sf : queue) {
        auto it = avg.find(sf->type.raw());
        const Cycles a = it == avg.end() ? 0 : it->second;
        total += a != 0 ? a : 1000;
    }
    return total;
}

/**
 * QueueScheduler double: per-type costs come from a table the test
 * mutates (followed by rebuildBacklogs(), as TAlloc's epoch boundary
 * does), and every queue primitive is reachable from the test.
 */
class BacklogProbe : public QueueScheduler
{
  public:
    const char *name() const override { return "BacklogProbe"; }

    using QueueScheduler::drainAllQueues;
    using QueueScheduler::enqueue;
    using QueueScheduler::enqueueFront;
    using QueueScheduler::popHead;
    using QueueScheduler::queuedCountOf;
    using QueueScheduler::queueOf;
    using QueueScheduler::rebuildBacklogs;
    using QueueScheduler::removeFromQueue;
    using QueueScheduler::takeBack;

    /** SelectiveOffload's admitted-pop path. */
    template <typename Pred>
    SuperFunction *
    popAdmitted(CoreId core, Pred pred)
    {
        return popFirst(core, pred);
    }

    /** The view SchedTaskScheduler hands to the steal functions. */
    TMigrateView
    stealView()
    {
        TMigrateView v;
        v.queues = &allQueues();
        v.backlog = &backlogs();
        v.queuedCount = [this](SfType t) { return queuedCountOf(t); };
        v.onStolen = [this](SuperFunction *sf) { noteQueueRemoval(sf); };
        return v;
    }

    /** Average execution time per type; absent or 0 = unseen. */
    std::map<std::uint64_t, Cycles> avg;

  protected:
    Cycles
    queueCost(SfType type) const override
    {
        auto it = avg.find(type.raw());
        return waitingCost(it == avg.end() ? 0 : it->second);
    }

    CoreId
    choosePlacement(SuperFunction *sf, PlacementReason reason) override
    {
        (void)reason;
        return sf->lastCore < numCores() ? sf->lastCore : 0;
    }
};

/** SchedTask with its queues and cost inputs exposed. */
class SchedTaskProbe : public SchedTaskScheduler
{
  public:
    using SchedTaskScheduler::SchedTaskScheduler;
    using SchedTaskScheduler::avgExecTimeOf;
    using SchedTaskScheduler::queueOf;
};

constexpr unsigned kCores = 6;

struct BacklogFuzz : ::testing::Test
{
    BacklogFuzz()
        : workload(Workload::buildSingle(suite, "Find", 1.0, kCores))
    {
        mp.numCores = kCores;
        mp.epochCycles = 50000;
        machine = std::make_unique<Machine>(
            mp, HierarchyParams::paperDefault(), suite, workload, probe);

        // Eight system-call types; queued SFs of these types come
        // from a test-owned pool (the machine's own application SFs
        // are already queued and take part as well).
        const auto &infos = suite.catalog().all();
        for (const SfTypeInfo &info : infos) {
            if (info.category == SfCategory::SystemCall)
                types.push_back(&info);
            if (types.size() == 8)
                break;
        }
        StatsTable stats(512);
        for (const SfTypeInfo *info : types) {
            PageHeatmap hm(512);
            for (Addr line : info->code.lines())
                hm.insertAddr(line);
            stats.record(info->type, info, 100, 100, hm);
        }
        overlap = OverlapTable::fromHeatmaps(stats);
        for (int i = 0; i < 96; ++i) {
            pool.push_back(std::make_unique<SuperFunction>());
            pool.back()->info = types[i % types.size()];
            pool.back()->type = types[i % types.size()]->type;
            idle.push_back(pool.back().get());
        }
        reweigh();
    }

    /** New random weights (some unseen), then the epoch rebuild. */
    void
    reweigh()
    {
        probe.avg.clear();
        for (const SfTypeInfo *info : types) {
            if (!rng.chance(0.25))
                probe.avg[info->type.raw()] = 1 + rng.below(5000);
        }
        probe.rebuildBacklogs();
    }

    /** A fresh random allocation of the types to cores. */
    void
    reallocate()
    {
        alloc = AllocTable{};
        for (const SfTypeInfo *info : types) {
            if (rng.chance(0.3))
                continue;
            alloc.set(info->type, {anyCore()});
        }
    }

    CoreId
    anyCore()
    {
        return static_cast<CoreId>(rng.below(kCores));
    }

    SuperFunction *
    takeIdle()
    {
        if (idle.empty())
            return nullptr;
        const std::size_t i = rng.below(idle.size());
        SuperFunction *sf = idle[i];
        idle[i] = idle.back();
        idle.pop_back();
        return sf;
    }

    /** Stolen SFs: the first runs, the rest queue on the thief. */
    void
    settleSteal(CoreId thief, const std::vector<SuperFunction *> &stolen)
    {
        for (std::size_t i = 0; i < stolen.size(); ++i) {
            if (i == 0)
                idle.push_back(stolen[i]);
            else
                probe.enqueue(thief, stolen[i]);
        }
    }

    void
    expectMatchesOracle(int step, int op)
    {
        for (CoreId c = 0; c < kCores; ++c) {
            ASSERT_EQ(probe.backlogs()[c],
                      oracleWaitingTime(probe.queueOf(c), probe.avg))
                << "core " << c << " after step " << step << " (op "
                << op << ")";
            for (const SuperFunction *sf : probe.queueOf(c))
                ASSERT_EQ(sf->coreId, c);
        }
        probe.checkInvariants();
    }

    BenchmarkSuite suite;
    Workload workload;
    MachineParams mp;
    BacklogProbe probe;
    std::unique_ptr<Machine> machine;
    std::vector<const SfTypeInfo *> types;
    OverlapTable overlap;
    AllocTable alloc;
    std::vector<std::unique_ptr<SuperFunction>> pool;
    std::vector<SuperFunction *> idle;
    Rng rng{0xbac10c};
};

} // namespace

TEST_F(BacklogFuzz, RunningBacklogEqualsQueueScan)
{
    reallocate();
    expectMatchesOracle(-1, -1);
    const auto queue_sizes = [this] {
        std::vector<std::size_t> sizes;
        for (CoreId c = 0; c < kCores; ++c)
            sizes.push_back(probe.queueOf(c).size());
        return sizes;
    };
    // Per operation: how often it actually moved queued work.
    std::vector<int> moved(12, 0);
    for (int step = 0; step < 20000; ++step) {
        const int op = static_cast<int>(rng.below(12));
        const std::vector<std::size_t> before = queue_sizes();
        switch (op) {
          case 0:
          case 1:
            if (SuperFunction *sf = takeIdle()) {
                if (op == 0)
                    probe.enqueue(anyCore(), sf);
                else
                    probe.enqueueFront(anyCore(), sf);
            }
            break;
          case 2:
            if (SuperFunction *sf = probe.popHead(anyCore()))
                idle.push_back(sf);
            break;
          case 3:
            if (SuperFunction *sf = probe.takeBack(anyCore()))
                idle.push_back(sf);
            break;
          case 4: {
            const auto &q = probe.queueOf(anyCore());
            if (!q.empty()) {
                SuperFunction *sf = q[rng.below(q.size())];
                ASSERT_TRUE(probe.removeFromQueue(sf));
                idle.push_back(sf);
            }
            break;
          }
          case 5: {
            const CoreId thief = anyCore();
            if (SuperFunction *sf =
                    stealSameWork(probe.stealView(), alloc, thief))
                idle.push_back(sf);
            break;
          }
          case 6: {
            const CoreId thief = anyCore();
            settleSteal(thief, stealSimilarWork(probe.stealView(), alloc,
                                                overlap, thief));
            break;
          }
          case 7: {
            const CoreId thief = anyCore();
            settleSteal(thief, stealFromBusiest(probe.stealView(), thief));
            break;
          }
          case 8: {
            const SfType want = types[rng.below(types.size())]->type;
            if (SuperFunction *sf = probe.popAdmitted(
                    anyCore(),
                    [want](const SuperFunction *s) {
                        return s->type == want;
                    }))
                idle.push_back(sf);
            break;
          }
          case 9:
            // Rare full drain + re-placement, as after a reallocation.
            if (rng.chance(0.05)) {
                for (SuperFunction *sf : probe.drainAllQueues())
                    probe.enqueue(anyCore(), sf);
            }
            break;
          case 10:
            reweigh();
            break;
          case 11:
            reallocate();
            break;
        }
        expectMatchesOracle(step, op);
        if (HasFatalFailure())
            return;
        moved[op] += queue_sizes() != before ? 1 : 0;
    }
    for (int op = 0; op <= 9; ++op)
        EXPECT_GT(moved[op], 0) << "op " << op << " never moved work";
}

TEST(Backlog, QueueSchedulerWithoutCostKeepsZeroBacklog)
{
    // Techniques that do not place by waiting time pay nothing.
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "Find", 1.0, 4);
    MachineParams mp;
    mp.numCores = 4;
    mp.epochCycles = 50000;
    auto sched = makeScheduler(TechniqueSpec{"Linux"});
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              *sched);
    m.run(3 * mp.epochCycles);
    const auto *qs = dynamic_cast<const QueueScheduler *>(sched.get());
    ASSERT_NE(qs, nullptr);
    for (Cycles b : qs->backlogs())
        EXPECT_EQ(b, 0u);
}

TEST(Backlog, SchedTaskBacklogMatchesScanThroughWholeRun)
{
    // A real SchedTask machine under heavy queueing: placements,
    // resumes, both steal levels and TAlloc re-placements all move
    // queued work. Checked between execution slices and across
    // epoch boundaries.
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "FileSrv", 4.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 50000;
    SchedTaskProbe sched;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              sched);
    std::size_t queued_checks = 0;
    for (int slice = 0; slice < 40; ++slice) {
        m.run(mp.epochCycles / 4);
        for (CoreId c = 0; c < mp.numCores; ++c) {
            Cycles scan = 0;
            for (const SuperFunction *sf : sched.queueOf(c)) {
                const Cycles avg = sched.avgExecTimeOf(sf->type);
                scan += avg != 0 ? avg : 1000;
            }
            ASSERT_EQ(sched.backlogs()[c], scan)
                << "core " << c << " after slice " << slice;
            queued_checks += sched.queueOf(c).size();
        }
    }
    EXPECT_GT(queued_checks, 0u);
    EXPECT_GT(sched.sameWorkSteals() + sched.similarWorkSteals(), 0u);
}
