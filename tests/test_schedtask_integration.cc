/**
 * @file
 * End-to-end invariants of the full SchedTask system: the headline
 * effects of the paper must hold on small systems, and the
 * machinery must conserve work.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/math_utils.hh"
#include "core/schedtask_sched.hh"
#include "harness/experiment.hh"
#include "sched/linux_sched.hh"
#include "sched/slicc.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

struct Outcome
{
    SimMetrics metrics;
    double ihit_os = 0.0;
    double ihit_app = 0.0;
};

Outcome
runBench(Scheduler &sched, const std::string &bench, unsigned cores,
         double scale, unsigned warmup = 4, unsigned measure = 4)
{
    BenchmarkSuite suite;
    Workload workload =
        Workload::buildSingle(suite, bench, scale, cores);
    MachineParams mp;
    mp.numCores = sched.coresRequired(cores);
    mp.epochCycles = 60000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              sched);
    m.run(warmup * mp.epochCycles);
    m.resetStats();
    m.run(measure * mp.epochCycles);
    Outcome out;
    out.metrics = m.metricsSnapshot();
    out.ihit_os = m.hierarchy().iCounts(ExecClass::Os).hitRate();
    out.ihit_app = m.hierarchy().iCounts(ExecClass::App).hitRate();
    return out;
}

} // namespace

TEST(SchedTaskIntegration, ImprovesOsICacheHitRate)
{
    // The central claim: executing same-type SuperFunctions on the
    // same core raises the i-cache hit rate of OS code.
    LinuxScheduler linux_sched;
    SchedTaskScheduler st;
    const Outcome base = runBench(linux_sched, "Apache", 16, 2.0);
    const Outcome task = runBench(st, "Apache", 16, 2.0);
    EXPECT_GT(task.ihit_os, base.ihit_os + 0.05);
    EXPECT_GT(task.ihit_app, base.ihit_app + 0.05);
}

TEST(SchedTaskIntegration, ImprovesThroughputOnOsIntensiveWork)
{
    LinuxScheduler linux_sched;
    SchedTaskScheduler st;
    const Outcome base = runBench(linux_sched, "FileSrv", 16, 2.0);
    const Outcome task = runBench(st, "FileSrv", 16, 2.0);
    EXPECT_GT(task.metrics.instsRetired,
              base.metrics.instsRetired * 102 / 100);
}

TEST(SchedTaskIntegration, KeepsIdleLowAtDoubleLoad)
{
    SchedTaskScheduler st;
    const Outcome task = runBench(st, "Apache", 16, 2.0);
    EXPECT_LT(task.metrics.idleFraction(16), 0.10);
}

TEST(SchedTaskIntegration, FairnessNearOne)
{
    SchedTaskScheduler st;
    const Outcome task = runBench(st, "OLTP", 16, 1.0, 4, 6);
    std::vector<double> per_thread;
    for (std::uint64_t v : task.metrics.perThreadInsts)
        per_thread.push_back(static_cast<double>(v));
    EXPECT_GT(jainFairness(per_thread), 0.85);
}

TEST(SchedTaskIntegration, HeatmapWidthsAllRun)
{
    for (unsigned bits : {128u, 512u, 2048u}) {
        SchedTaskScheduler st;
        BenchmarkSuite suite;
        Workload workload =
            Workload::buildSingle(suite, "Find", 1.0, 8);
        MachineParams mp;
        mp.numCores = 8;
        mp.epochCycles = 50000;
        mp.heatmapBits = bits;
        Machine m(mp, HierarchyParams::paperDefault(), suite,
                  workload, st);
        m.run(4 * mp.epochCycles);
        EXPECT_GT(m.metricsSnapshot().appEvents, 0u) << bits;
    }
}

TEST(SchedTaskIntegration, ExactOverlapModeRuns)
{
    SchedTaskParams params;
    params.useExactOverlap = true;
    SchedTaskScheduler st(params);
    const Outcome task = runBench(st, "Find", 8, 1.0, 3, 3);
    EXPECT_GT(task.metrics.appEvents, 0u);
}

TEST(SchedTaskIntegration, AllStealPoliciesRun)
{
    for (StealPolicy policy :
         {StealPolicy::None, StealPolicy::SameOnly,
          StealPolicy::SameAndSimilar, StealPolicy::BusiestFirst}) {
        SchedTaskParams params;
        params.stealPolicy = policy;
        SchedTaskScheduler st(params);
        const Outcome task = runBench(st, "Apache", 8, 1.0, 3, 3);
        EXPECT_GT(task.metrics.appEvents, 0u)
            << stealPolicyName(policy);
    }
}

TEST(SchedTaskIntegration, WorkConservedAcrossSchedulers)
{
    // Whatever the scheduler, the machine must neither lose nor
    // duplicate SuperFunctions: every technique keeps retiring
    // instructions for the whole run.
    for (const TechniqueSpec &t : comparedTechniques()) {
        auto sched =
            SchedulerRegistry::instance().make(t, SchedTaskParams{});
        BenchmarkSuite suite;
        Workload workload =
            Workload::buildSingle(suite, "MailSrvIO", 1.0, 8);
        MachineParams mp;
        mp.numCores = sched->coresRequired(8);
        mp.epochCycles = 50000;
        Machine m(mp, HierarchyParams::paperDefault(), suite,
                  workload, *sched);
        m.run(3 * mp.epochCycles);
        const std::uint64_t first = m.metricsSnapshot().instsRetired;
        m.run(3 * mp.epochCycles);
        const std::uint64_t second =
            m.metricsSnapshot().instsRetired;
        EXPECT_GT(second, first) << t.name;
    }
}

TEST(SchedTaskIntegration, NoSuperFunctionStuckInPausedState)
{
    // Regression test: interrupt handlers must never be migrated
    // mid-flight, or the SuperFunctions paused beneath them leak.
    SliccScheduler slicc;
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "Find", 2.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 50000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              slicc);
    m.run(8 * mp.epochCycles);
    unsigned paused = 0;
    for (const auto &sf : m.sfPool())
        paused += sf->state == SfState::Paused ? 1 : 0;
    // At most a couple may be legitimately paused at the snapshot
    // instant (one per core under an active interrupt).
    EXPECT_LE(paused, 8u);
}

TEST(SchedTaskIntegration, EpochSimilarityStabilizes)
{
    // Section 4.4's property, measured through the machine.
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, "OLTP", 1.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 60000;
    mp.trace = true;
    LinuxScheduler sched;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              sched);
    m.run(8 * mp.epochCycles);
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> series;
    for (const EpochSample &s : m.metricsSnapshot().epochSamples)
        series.push_back(s.instsByType);
    ASSERT_GE(series.size(), 6u);

    auto similarity = [](const auto &a, const auto &b) {
        std::vector<double> va, vb;
        for (const auto &[k, v] : a) {
            va.push_back(static_cast<double>(v));
            auto it = b.find(k);
            vb.push_back(
                it == b.end() ? 0.0 : static_cast<double>(it->second));
        }
        return cosineSimilarity(va, vb);
    };
    // Steady-state epochs are highly similar.
    const std::size_t n = series.size();
    EXPECT_GT(similarity(series[n - 2], series[n - 1]), 0.95);
}
