/**
 * @file
 * Property sweep: every (benchmark x technique) pair on a small
 * machine must satisfy the simulator's global invariants. This is
 * the broadest net in the suite — it exercises placement, stealing,
 * blocking, interrupts, epochs and recycling for every scheduler on
 * every workload shape.
 *
 * Invariants checked per run:
 *  - forward progress (instructions retire, app events complete);
 *  - no SuperFunction leaks (pool states consistent at the end);
 *  - accounting sanity (category sums equal totals, idle bounded);
 *  - determinism (a second identical run matches).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <tuple>

#include "harness/experiment.hh"
#include "sim/machine.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

struct RunOutcome
{
    SimMetrics metrics;
    unsigned paused = 0;
    unsigned running = 0;
    std::size_t pool = 0;
};

RunOutcome
runConfig(const std::string &bench, const TechniqueSpec &technique,
          unsigned cores, double scale)
{
    BenchmarkSuite suite;
    Workload workload =
        Workload::buildSingle(suite, bench, scale, cores);
    auto sched =
        SchedulerRegistry::instance().make(technique, SchedTaskParams{});
    MachineParams mp;
    mp.numCores = sched->coresRequired(cores);
    mp.epochCycles = 40000;
    Machine m(mp, HierarchyParams::paperDefault(), suite, workload,
              *sched);
    m.run(6 * mp.epochCycles);

    RunOutcome out;
    out.metrics = m.metricsSnapshot();
    out.pool = m.sfPool().size();
    for (const auto &sf : m.sfPool()) {
        if (sf->info == nullptr)
            continue;
        out.paused += sf->state == SfState::Paused ? 1 : 0;
        out.running += sf->state == SfState::Running ? 1 : 0;
    }
    return out;
}

/** The six paper techniques, in figure order. */
const char *const paperTechniques[] = {
    "Linux", "SelectiveOffload", "FlexSC",
    "DisAggregateOS", "SLICC", "SchedTask",
};

/**
 * A position in paperTechniques. The sweep is parameterised on this
 * one-byte index rather than on the TechniqueSpec so that gtest
 * prints the parameter as a fixed byte value, which keeps the
 * generated test names stable.
 */
struct TechniqueIndex
{
    std::uint8_t value;

    TechniqueSpec
    spec() const
    {
        return TechniqueSpec{paperTechniques[value]};
    }
};

} // namespace

class TechniqueWorkloadSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, TechniqueIndex>>
{
};

TEST_P(TechniqueWorkloadSweep, InvariantsHold)
{
    const auto &[bench, index] = GetParam();
    const TechniqueSpec technique = index.spec();
    const RunOutcome out = runConfig(bench, technique, 8, 1.0);
    const SimMetrics &m = out.metrics;

    // Forward progress.
    EXPECT_GT(m.instsRetired, 10000u);
    EXPECT_GT(m.appEvents, 0u);

    // Accounting sanity: category insts + overhead == total.
    std::uint64_t by_cat = m.overheadInsts;
    for (auto v : m.instsByCategory)
        by_cat += v;
    EXPECT_EQ(by_cat, m.instsRetired);

    // Per-part sums never exceed the (category) total.
    std::uint64_t by_part = 0;
    for (auto v : m.instsByPart)
        by_part += v;
    EXPECT_LE(by_part, m.instsRetired);

    // Idle bounded.
    const unsigned cores =
        technique.name == "SelectiveOffload" ? 16 : 8;
    EXPECT_GE(m.idleFraction(cores), 0.0);
    EXPECT_LE(m.idleFraction(cores), 1.0);

    // No mass of leaked Paused SuperFunctions (at most one per core
    // can be legitimately paused under an active interrupt at the
    // snapshot instant).
    EXPECT_LE(out.paused, cores);

    // Interrupts flowed.
    EXPECT_GT(m.irqCount, 0u);
}

TEST_P(TechniqueWorkloadSweep, Deterministic)
{
    const auto &[bench, index] = GetParam();
    const RunOutcome a = runConfig(bench, index.spec(), 4, 1.0);
    const RunOutcome b = runConfig(bench, index.spec(), 4, 1.0);
    EXPECT_EQ(a.metrics.instsRetired, b.metrics.instsRetired);
    EXPECT_EQ(a.metrics.appEvents, b.metrics.appEvents);
    EXPECT_EQ(a.metrics.migrations, b.metrics.migrations);
    EXPECT_EQ(a.metrics.idleCycles, b.metrics.idleCycles);
    EXPECT_EQ(a.pool, b.pool);
}

namespace
{

std::vector<std::tuple<std::string, TechniqueIndex>>
sweepCases()
{
    std::vector<std::tuple<std::string, TechniqueIndex>> cases;
    for (const std::string &b : BenchmarkSuite::benchmarkNames()) {
        for (std::uint8_t t = 0; t < std::size(paperTechniques); ++t)
            cases.emplace_back(b, TechniqueIndex{t});
    }
    return cases;
}

std::string
sweepName(const ::testing::TestParamInfo<
          std::tuple<std::string, TechniqueIndex>> &info)
{
    return std::get<0>(info.param) + "_"
        + paperTechniques[std::get<1>(info.param).value];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPairs, TechniqueWorkloadSweep,
                         ::testing::ValuesIn(sweepCases()), sweepName);

/** Scale sweep on one benchmark x technique: invariants at load. */
class ScaleSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ScaleSweep, SchedTaskHandlesLoad)
{
    const RunOutcome out =
        runConfig("Apache", TechniqueSpec{"SchedTask"}, 8, GetParam());
    EXPECT_GT(out.metrics.appEvents, 0u);
    EXPECT_LE(out.paused, 8u);
    // More load must never reduce total retirement catastrophically.
    EXPECT_GT(out.metrics.instsRetired, 50000u);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));
