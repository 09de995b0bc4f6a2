/**
 * @file
 * Scheduler registry and option-blob tests: parse grammar, strict
 * validation, registration round-trips, naming techniques by
 * TechniqueSpec, and determinism of option-carrying technique specs
 * under the sweep runner at any job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sched/options.hh"
#include "sched/registry.hh"
#include "sim/machine.hh"

using namespace schedtask;

// ---- option blob grammar --------------------------------------------

TEST(Options, ParsesTypedValues)
{
    const SchedulerOptions opts =
        SchedulerOptions::parse("a=1,b=2.5,c=yes,d=text");
    EXPECT_EQ(opts.size(), 4u);
    EXPECT_EQ(opts.getUnsigned("a", 0, 0, 9), 1u);
    EXPECT_DOUBLE_EQ(opts.getDouble("b", 0.0, 0.0, 9.0), 2.5);
    EXPECT_TRUE(opts.getBool("c", false));
    EXPECT_EQ(opts.getString("d", ""), "text");
    EXPECT_EQ(opts.str(), "a=1,b=2.5,c=yes,d=text");
}

TEST(Options, AbsentKeysYieldFallback)
{
    const SchedulerOptions opts = SchedulerOptions::parse("");
    EXPECT_TRUE(opts.empty());
    EXPECT_EQ(opts.getUnsigned("missing", 7, 0, 9), 7u);
    EXPECT_DOUBLE_EQ(opts.getDouble("missing", 1.5, 0.0, 1.0), 1.5);
    EXPECT_FALSE(opts.getBool("missing", false));
}

TEST(Options, MalformedValueThrows)
{
    const SchedulerOptions opts =
        SchedulerOptions::parse("n=abc,f=zz,b=maybe");
    EXPECT_THROW(opts.getUnsigned("n", 0, 0, 9), SchedulerOptionError);
    EXPECT_THROW(opts.getDouble("f", 0.0, 0.0, 1.0), SchedulerOptionError);
    EXPECT_THROW(opts.getBool("b", false), SchedulerOptionError);
}

TEST(Options, UnsignedOutsideRangeThrows)
{
    const SchedulerOptions opts =
        SchedulerOptions::parse("lo=2,hi=9,big=18446744073709551615");
    EXPECT_EQ(opts.getUnsigned("lo", 5, 2, 9), 2u);
    EXPECT_EQ(opts.getUnsigned("hi", 5, 2, 9), 9u);
    try {
        opts.getUnsigned("lo", 5, 3, 9);
        FAIL() << "2 is outside [3, 9]";
    } catch (const SchedulerOptionError &e) {
        EXPECT_STREQ(e.what(), "option 'lo' must be in [3, 9]");
    }
    EXPECT_THROW(opts.getUnsigned("hi", 5, 2, 8), SchedulerOptionError);
    EXPECT_THROW(opts.getUnsigned("big", 5, 0, kMaxOptionCount),
                 SchedulerOptionError);
}

TEST(Options, DoubleOutsideRangeThrows)
{
    const SchedulerOptions opts =
        SchedulerOptions::parse("zero=0,one=1,neg=-5,huge=1e308,mid=0.25");
    EXPECT_DOUBLE_EQ(opts.getDouble("zero", 0.5, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(opts.getDouble("one", 0.5, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(opts.getDouble("mid", 0.5, 0.0, 1.0), 0.25);
    try {
        opts.getDouble("neg", 0.5, 0.0, 1.0);
        FAIL() << "-5 is outside [0, 1]";
    } catch (const SchedulerOptionError &e) {
        EXPECT_STREQ(e.what(), "option 'neg' must be in [0, 1]");
    }
    EXPECT_THROW(opts.getDouble("huge", 0.5, 0.0, 1.0),
                 SchedulerOptionError);
    EXPECT_THROW(opts.getDouble("mid", 0.5, 0.5, 1.0), SchedulerOptionError);
    // The fallback is returned unchecked, like getUnsigned's.
    EXPECT_DOUBLE_EQ(opts.getDouble("missing", 7.0, 0.0, 1.0), 7.0);
}

TEST(Options, RejectsBadGrammar)
{
    EXPECT_THROW(SchedulerOptions::parse("a=1,a=2"),
                 SchedulerOptionError); // duplicate key
    EXPECT_THROW(SchedulerOptions::parse("=1"),
                 SchedulerOptionError); // empty key
    EXPECT_THROW(SchedulerOptions::parse("a="),
                 SchedulerOptionError); // empty value
    EXPECT_THROW(SchedulerOptions::parse("a"),
                 SchedulerOptionError); // no '='
    EXPECT_THROW(SchedulerOptions::parse("a-b=1"),
                 SchedulerOptionError); // bad key character
}

TEST(Options, ParseTechniqueSpecGrammar)
{
    const TechniqueSpec bare = parseTechniqueSpec("SLICC");
    EXPECT_EQ(bare.name, "SLICC");
    EXPECT_TRUE(bare.options.empty());
    EXPECT_EQ(bare.str(), "SLICC");

    const TechniqueSpec full =
        parseTechniqueSpec("schedtask:steal=none,epoch_ms=4");
    EXPECT_EQ(full.name, "schedtask");
    EXPECT_EQ(full.options.getString("steal", ""), "none");
    EXPECT_EQ(full.str(), "schedtask:steal=none,epoch_ms=4");

    EXPECT_THROW(parseTechniqueSpec(""), SchedulerOptionError);
    EXPECT_THROW(parseTechniqueSpec(":a=1"), SchedulerOptionError);
}

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
    info.options = {{"knob", "test knob"}};
    info.factory = [](const SchedulerFactoryContext &) {
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

    TechniqueSpec spec;
    spec.name = "test-null";
    spec.options.set("knob", "1");
    const auto sched = reg.make(spec);
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
    TechniqueSpec spec;
    spec.name = "no-such-technique";
    EXPECT_THROW(reg.make(spec), SchedulerOptionError);

    spec.name = "SchedTask";
    spec.options.set("bogus", "1");
    EXPECT_THROW(reg.make(spec), SchedulerOptionError);
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
    EXPECT_EQ(TechniqueSpec{"SLICC"}.str(), parseTechniqueSpec("SLICC").str());
    EXPECT_TRUE(TechniqueSpec{"SLICC"}.options.empty());
}

TEST(Shims, ComparedTechniquesExcludeBaseline)
{
    // The historical bug: comparedTechniques() must list the five
    // non-baseline paper techniques, in paper order, never Linux.
    const std::vector<TechniqueSpec> &cmp = comparedTechniques();
    ASSERT_EQ(cmp.size(), 5u);
    EXPECT_EQ(cmp.front().name, "SelectiveOffload");
    EXPECT_EQ(cmp.back().name, "SchedTask");
    for (const TechniqueSpec &t : cmp) {
        EXPECT_NE(t.name, "Linux");
        EXPECT_TRUE(t.options.empty()) << t.str();
    }
    EXPECT_TRUE(SchedulerRegistry::instance().isBaseline("Linux"));
    EXPECT_FALSE(
        SchedulerRegistry::instance().isBaseline("SchedTask"));
}

// ---- universal epoch_ms and configureMachine ------------------------

TEST(RegistryOptions, EpochMsScalesEpochCycles)
{
    const auto sched = SchedulerRegistry::instance().make(
        parseTechniqueSpec("SchedTask:epoch_ms=4"));
    MachineParams mp;
    sched->configureMachine(mp);
    // 3 ms ≙ 250000 cycles, so 4 ms ≙ 333333.
    EXPECT_EQ(mp.epochCycles, 4u * 250000u / 3u);

    EXPECT_THROW(SchedulerRegistry::instance().make(
                     parseTechniqueSpec("Linux:epoch_ms=0")),
                 SchedulerOptionError);
}

TEST(RegistryOptions, SchedTaskValuesBounded)
{
    const auto make = [](const char *spec) {
        return SchedulerRegistry::instance().make(parseTechniqueSpec(spec));
    };
    make("SchedTask:demand_smoothing=0,realloc_guard=1,"
         "talloc_insts=4294967295");
    // Out-of-range values are rejected, not clamped.
    for (const char *bad : {"SchedTask:demand_smoothing=-5",
                            "SchedTask:demand_smoothing=1e308",
                            "SchedTask:realloc_guard=-1",
                            "SchedTask:realloc_guard=1.5",
                            "SchedTask:talloc_insts=4294967296",
                            "SchedTask:talloc_insts=18446744073709551615"}) {
        EXPECT_THROW(make(bad), SchedulerOptionError) << bad;
    }
}

TEST(RegistryOptions, EpochMsBoundedAgainstCycleOverflow)
{
    MachineParams mp;
    SchedulerRegistry::instance()
        .make(parseTechniqueSpec("SchedTask:epoch_ms=10000"))
        ->configureMachine(mp);
    EXPECT_EQ(mp.epochCycles, 10000u * 250000u / 3u);
    EXPECT_THROW(SchedulerRegistry::instance().make(
                     parseTechniqueSpec("SchedTask:epoch_ms=10001")),
                 SchedulerOptionError);
}

TEST(RegistryOptions, FlexSCMinSyscallCoresBoundedByCoreCount)
{
    const auto make = [](const char *spec) {
        return SchedulerRegistry::instance().make(parseTechniqueSpec(spec));
    };
    MachineParams mp;
    mp.numCores = 32;
    make("FlexSC:min_syscall_cores=31")->configureMachine(mp);
    EXPECT_THROW(make("FlexSC:min_syscall_cores=32")->configureMachine(mp),
                 SchedulerOptionError);
    EXPECT_THROW(make("FlexSC:min_syscall_cores=0"), SchedulerOptionError);
    // Past 32 bits the value is rejected, not truncated to 1.
    EXPECT_THROW(make("FlexSC:min_syscall_cores=4294967297"),
                 SchedulerOptionError);
    mp.numCores = 1;
    EXPECT_THROW(make("FlexSC")->configureMachine(mp), SchedulerOptionError);
}

// ---- option-carrying specs under the sweep runner -------------------

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
    // Specs whose options reach configureMachine (epoch_ms, FlexSC's
    // syscall-core bound) next to a plain one, on two benchmarks.
    Sweep sweep;
    for (const char *bench : {"Find", "Iscp"}) {
        for (const char *spec : {"SchedTask:epoch_ms=4",
                                 "FlexSC:min_syscall_cores=2", "SLICC"}) {
            sweep.addComparison(bench, spec, smallConfig(bench),
                                parseTechniqueSpec(spec));
        }
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

TEST(PostPaperSweep, ConfigureMachineChangesOnlyTechniqueMachine)
{
    // epoch_ms=6 doubles the technique's 3 ms epochs through
    // configureMachine; the Linux baseline keeps the configured ones,
    // so the technique measures exactly twice the baseline's window.
    const Comparison cmp =
        compare(smallConfig(), parseTechniqueSpec("SchedTask:epoch_ms=6"));
    EXPECT_GT(cmp.baseline.metrics.cycles, 0u);
    EXPECT_EQ(cmp.technique.metrics.cycles,
              2 * cmp.baseline.metrics.cycles);
}
