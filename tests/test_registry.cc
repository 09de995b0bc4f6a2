/**
 * @file
 * Scheduler registry tests: registration round-trips, naming
 * techniques by TechniqueSpec (a registered name and nothing else),
 * the bounds ExperimentConfig::validate puts on SchedTask's variant
 * knobs and FlexSC's machine shape, and determinism of technique
 * variants under the sweep runner at any job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sched/flexsc.hh"
#include "sched/registry.hh"
#include "sim/machine.hh"

using namespace schedtask;

// ---- registry round-trip --------------------------------------------

namespace
{

/** Inert scheduler for registration tests. */
class NullScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "null"; }

  protected:
    CoreId
    choosePlacement(SuperFunction *, PlacementReason) override
    {
        return 0;
    }
};

SchedulerInfo
nullInfo(const std::string &name)
{
    SchedulerInfo info;
    info.name = name;
    info.description = "test-only scheduler";
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<NullScheduler>();
    };
    return info;
}

} // namespace

TEST(Registry, RegisterFindMakeRoundTrip)
{
    SchedulerRegistry &reg = SchedulerRegistry::instance();
    reg.registerScheduler(nullInfo("test-null"));

    const SchedulerInfo *info = reg.find("test-null");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->name, "test-null");
    EXPECT_FALSE(info->isBaseline);
    EXPECT_EQ(info->paperOrder, -1);

    // Lookup is case-insensitive; display keeps canonical casing.
    EXPECT_EQ(reg.find("TEST-NULL"), info);

    const auto sched =
        reg.make(TechniqueSpec{"TEST-NULL"}, SchedTaskParams{});
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->name(), "null");

    // Post-paper registrations never join the paper figure columns.
    for (const SchedulerInfo *entry : reg.paperEntries())
        EXPECT_NE(entry->name, "test-null");
}

TEST(RegistryDeath, DuplicateNamePanics)
{
    SchedulerRegistry &reg = SchedulerRegistry::instance();
    reg.registerScheduler(nullInfo("test-dup"));
    EXPECT_DEATH(reg.registerScheduler(nullInfo("Test-Dup")),
                 "duplicate technique registration");
}

TEST(Registry, UnknownTechniqueAndOptionThrow)
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    EXPECT_THROW(
        reg.make(TechniqueSpec{"no-such-technique"}, SchedTaskParams{}),
        TechniqueError);
    // A technique is a name: the former "name:key=val" spellings are
    // unknown names, refused whole rather than stripped to "SchedTask".
    for (const char *former : {"SchedTask:bogus=1", "SchedTask:steal=none",
                               "FlexSC:min_syscall_cores=2"}) {
        try {
            reg.make(TechniqueSpec{former}, SchedTaskParams{});
            FAIL() << former << " was accepted";
        } catch (const TechniqueError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unknown technique '" + std::string(former)
                          + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Registry, ListsBuiltinsSorted)
{
    const std::vector<std::string> names =
        SchedulerRegistry::instance().names();
    // Sorted by lower-cased name, so the listing is deterministic.
    std::vector<std::string> lower;
    for (const std::string &n : names) {
        std::string l = n;
        for (char &c : l)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        lower.push_back(l);
    }
    EXPECT_TRUE(std::is_sorted(lower.begin(), lower.end()));
    const auto has = [&](const char *n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("Linux"));
    EXPECT_TRUE(has("SchedTask"));
    EXPECT_TRUE(has("FlexSC"));
    EXPECT_TRUE(has("SLICC"));
}

// ---- naming techniques by TechniqueSpec ----------------------------

TEST(Shims, TechniqueSpecMatchesNames)
{
    EXPECT_EQ(TechniqueSpec{"Linux"}.str(), "Linux");
    EXPECT_EQ(TechniqueSpec{"SchedTask"}.str(), "SchedTask");
    EXPECT_EQ(TechniqueSpec{}.str(), "SchedTask");
    EXPECT_EQ(TechniqueSpec{"SLICC"}.str(), "SLICC");
}

TEST(Shims, ComparedTechniquesExcludeBaseline)
{
    // The historical bug: comparedTechniques() must list the five
    // non-baseline paper techniques, in paper order, never Linux.
    const std::vector<TechniqueSpec> &cmp = comparedTechniques();
    ASSERT_EQ(cmp.size(), 5u);
    EXPECT_EQ(cmp.front().name, "SelectiveOffload");
    EXPECT_EQ(cmp.back().name, "SchedTask");
    for (const TechniqueSpec &t : cmp)
        EXPECT_NE(t.name, "Linux");
    EXPECT_TRUE(SchedulerRegistry::instance().isBaseline("Linux"));
    EXPECT_FALSE(
        SchedulerRegistry::instance().isBaseline("SchedTask"));
}

// ---- variant bounds and configureMachine ---------------------------

TEST(RegistryOptions, SchedTaskValuesBounded)
{
    // SchedTask's knobs are ExperimentConfig::schedTask fields, and
    // validate() bounds them: out-of-range values are rejected, not
    // clamped.
    const auto problem = [](double smoothing) {
        return ExperimentConfig::standard("Find")
            .withDemandSmoothing(smoothing)
            .validate(TechniqueSpec{"SchedTask"});
    };
    EXPECT_EQ(problem(0.0), std::nullopt);
    EXPECT_EQ(problem(1.0), std::nullopt);
    for (double bad : {-5.0, -1e-9, 1.5, 1e308,
                       std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_EQ(problem(bad).value_or(""),
                  "schedTask.demandSmoothing must be in [0, 1]")
            << bad;
    }
}

TEST(RegistryOptions, FlexSCMinSyscallCoresBoundedByCoreCount)
{
    // The split needs one system call core and one application core.
    MachineParams mp;
    mp.numCores = 2;
    FlexSCScheduler().configureMachine(mp);
    mp.numCores = 1;
    EXPECT_THROW(SchedulerRegistry::instance()
                     .make(TechniqueSpec{"FlexSC"}, SchedTaskParams{})
                     ->configureMachine(mp),
                 TechniqueError);
}

// ---- technique variants under the sweep runner ---------------------

namespace
{

ExperimentConfig
smallConfig(const std::string &bench = "Find")
{
    return ExperimentConfig::standard(bench, 1.0)
        .withCores(4)
        .withEpochs(1, 1);
}

void
expectBitwiseEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.metrics.instsRetired, b.metrics.instsRetired);
    EXPECT_EQ(a.metrics.appEvents, b.metrics.appEvents);
    EXPECT_EQ(a.metrics.migrations, b.metrics.migrations);
    EXPECT_EQ(a.iHitAll, b.iHitAll);
    EXPECT_EQ(a.dHitApp, b.dHitApp);
    EXPECT_EQ(a.idlePercent(), b.idlePercent());
}

SweepResults
runAt(const Sweep &sweep, unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return SweepRunner(opts).run(sweep);
}

} // namespace

TEST(PostPaperSweep, DeterministicAtAnyJobCount)
{
    // A SchedTask variant (its steal policy is a config field) next
    // to a technique with a machine-shape check (FlexSC) and a plain
    // one, on two benchmarks.
    Sweep sweep;
    for (const char *bench : {"Find", "Iscp"}) {
        sweep.addComparison(
            bench, "steal busiest",
            smallConfig(bench).withSteal(StealPolicy::BusiestFirst),
            TechniqueSpec{"SchedTask"});
        for (const char *name : {"FlexSC", "SLICC"})
            sweep.addComparison(bench, name, smallConfig(bench),
                                TechniqueSpec{name});
    }

    const SweepResults serial = runAt(sweep, 1);
    const SweepResults parallel = runAt(sweep, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const RunRequest &req : sweep.requests()) {
        SCOPED_TRACE(req.label());
        expectBitwiseEqual(serial.at(req.label()),
                           parallel.at(req.label()));
    }
}
