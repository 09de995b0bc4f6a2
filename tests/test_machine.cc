/**
 * @file
 * Integration tests of the Machine: thread lifecycle, instruction
 * accounting, app events, interrupts, determinism, and stats reset.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sched/linux_sched.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

struct MachineFixture : ::testing::Test
{
    MachineFixture()
        : workload(Workload::buildSingle(suite, "Apache", 1.0, 8))
    {
        params.numCores = 8;
        params.epochCycles = 50000;
    }

    Machine
    makeMachine(Scheduler &sched)
    {
        return Machine(params, HierarchyParams::paperDefault(), suite,
                       workload, sched);
    }

    BenchmarkSuite suite;
    Workload workload;
    MachineParams params;
};

} // namespace

TEST_F(MachineFixture, RunAdvancesTimeAndRetiresInstructions)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(4 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    EXPECT_EQ(metrics.cycles, 4 * params.epochCycles);
    EXPECT_GT(metrics.instsRetired, 100000u);
    EXPECT_GT(metrics.appEvents, 0u);
}

TEST_F(MachineFixture, AllFourCategoriesExecute)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(4 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    for (unsigned c = 0; c < numSfCategories; ++c)
        EXPECT_GT(metrics.instsByCategory[c], 0u) << "category " << c;
    EXPECT_GT(metrics.overheadInsts, 0u);
}

TEST_F(MachineFixture, SchedulerOverheadShareIsPaperLike)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(6 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    const double share = static_cast<double>(metrics.overheadInsts)
        / static_cast<double>(metrics.instsRetired);
    // The paper reports ~3.2%; accept a generous band.
    EXPECT_GT(share, 0.005);
    EXPECT_LT(share, 0.10);
}

TEST_F(MachineFixture, InterruptsServiced)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(4 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    EXPECT_GT(metrics.irqCount, 0u);
    EXPECT_GT(m.irqController().delivered(), 0u);
    EXPECT_GE(metrics.meanIrqLatency(), 0.0);
}

TEST_F(MachineFixture, DeterministicAcrossRuns)
{
    SimMetrics a, b;
    {
        BenchmarkSuite s;
        Workload w = Workload::buildSingle(s, "Apache", 1.0, 8);
        LinuxScheduler sched;
        Machine m(params, HierarchyParams::paperDefault(), s, w,
                  sched);
        m.run(2 * params.epochCycles);
        a = m.metricsSnapshot();
    }
    {
        BenchmarkSuite s;
        Workload w = Workload::buildSingle(s, "Apache", 1.0, 8);
        LinuxScheduler sched;
        Machine m(params, HierarchyParams::paperDefault(), s, w,
                  sched);
        m.run(2 * params.epochCycles);
        b = m.metricsSnapshot();
    }
    EXPECT_EQ(a.instsRetired, b.instsRetired);
    EXPECT_EQ(a.appEvents, b.appEvents);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.irqCount, b.irqCount);
}

TEST_F(MachineFixture, SeedChangesOutcome)
{
    LinuxScheduler s1, s2;
    Machine m1 = makeMachine(s1);
    MachineParams p2 = params;
    p2.seed = 999;
    BenchmarkSuite suite2;
    Workload w2 = Workload::buildSingle(suite2, "Apache", 1.0, 8);
    LinuxScheduler sched2;
    Machine m2(p2, HierarchyParams::paperDefault(), suite2, w2,
               sched2);
    m1.run(2 * params.epochCycles);
    m2.run(2 * params.epochCycles);
    EXPECT_NE(m1.metricsSnapshot().instsRetired,
              m2.metricsSnapshot().instsRetired);
}

TEST_F(MachineFixture, ResetStatsZeroesWindow)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(2 * params.epochCycles);
    m.resetStats();
    const SimMetrics metrics = m.metricsSnapshot();
    EXPECT_EQ(metrics.cycles, 0u);
    EXPECT_EQ(metrics.instsRetired, 0u);
    EXPECT_EQ(metrics.appEvents, 0u);
    for (std::uint64_t v : metrics.perThreadInsts)
        EXPECT_EQ(v, 0u);
    // Running again accumulates fresh.
    m.run(params.epochCycles);
    EXPECT_GT(m.metricsSnapshot().instsRetired, 0u);
}

TEST_F(MachineFixture, PerThreadInstsCoverAllThreads)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(6 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    ASSERT_EQ(metrics.perThreadInsts.size(), workload.threads().size());
    unsigned executed = 0;
    for (std::uint64_t v : metrics.perThreadInsts)
        executed += v > 0 ? 1 : 0;
    // Nearly every thread makes progress within six epochs.
    EXPECT_GT(executed, workload.threads().size() * 9 / 10);
}

TEST_F(MachineFixture, EpochBreakupsRecordedWhenEnabled)
{
    params.trace = true;
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(3 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    ASSERT_EQ(metrics.epochSamples.size(), 3u);
    for (const EpochSample &epoch : metrics.epochSamples)
        EXPECT_FALSE(epoch.instsByType.empty());
}

TEST_F(MachineFixture, IdleFractionBounded)
{
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(4 * params.epochCycles);
    const double idle = m.metricsSnapshot().idleFraction(8);
    EXPECT_GE(idle, 0.0);
    EXPECT_LE(idle, 1.0);
}

TEST_F(MachineFixture, MigrationCountingDetached)
{
    // The Linux baseline keeps work local: migrations happen only
    // through the balancer and stay rare.
    LinuxScheduler sched;
    Machine m = makeMachine(sched);
    m.run(6 * params.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    const double per_billion = metrics.instsRetired == 0
        ? 0.0
        : static_cast<double>(metrics.migrations) * 1e9
            / static_cast<double>(metrics.instsRetired);
    EXPECT_LT(per_billion, 50000.0);
}
