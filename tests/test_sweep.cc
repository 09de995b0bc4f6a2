/**
 * @file
 * Tests for the parallel sweep runner: deterministic per-run
 * seeding, baseline deduplication, and bitwise-identical results
 * regardless of the worker-thread count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_export.hh"

using namespace schedtask;

namespace
{

/** A cheap configuration so the thread-pool tests stay fast. */
ExperimentConfig
smallConfig(const std::string &bench = "Find")
{
    return ExperimentConfig::standard(bench, 1.0)
        .withCores(4)
        .withEpochs(1, 1);
}

/** The per-run fields that must match bit-for-bit. */
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

} // namespace

TEST(SweepSeeds, RowDerivedAndStable)
{
    Sweep sweep;
    sweep.add("rowA", "SchedTask", smallConfig(),
              TechniqueSpec{"SchedTask"});
    sweep.add("rowA", "Linux", smallConfig(), TechniqueSpec{"Linux"});
    sweep.add("rowB", "SchedTask", smallConfig(),
              TechniqueSpec{"SchedTask"});

    const auto &reqs = sweep.requests();
    ASSERT_EQ(reqs.size(), 3u);
    // Same row -> same derived seed (shared workload streams);
    // different row -> a different stream.
    EXPECT_EQ(runSeed(reqs[0]), runSeed(reqs[1]));
    EXPECT_NE(runSeed(reqs[0]), runSeed(reqs[2]));
    // Stable across invocations (no process-global RNG involved).
    EXPECT_EQ(runSeed(reqs[0]), runSeed(reqs[0]));
}

TEST(SweepSeeds, DeriveSeedsOffUsesConfigSeed)
{
    Sweep sweep;
    sweep.deriveSeeds(false);
    ExperimentConfig cfg = smallConfig();
    cfg.machine.seed = 42;
    sweep.add("row", "run", cfg, TechniqueSpec{"Linux"});
    EXPECT_EQ(runSeed(sweep.requests()[0]), 42u);
}

TEST(SweepSeeds, MasterSeedShiftsDerivedSeeds)
{
    ExperimentConfig a = smallConfig();
    ExperimentConfig b = smallConfig().withSeed(7);
    Sweep sa, sb;
    sa.add("row", "run", a, TechniqueSpec{"Linux"});
    sb.add("row", "run", b, TechniqueSpec{"Linux"});
    EXPECT_NE(runSeed(sa.requests()[0]), runSeed(sb.requests()[0]));
}

TEST(SweepDedup, OneBaselinePerConfig)
{
    Sweep sweep;
    const ExperimentConfig cfg = smallConfig();
    // Three techniques against the same config: one Linux baseline.
    sweep.addComparison("Find", "SchedTask", cfg,
                        TechniqueSpec{"SchedTask"});
    sweep.addComparison("Find", "SLICC", cfg, TechniqueSpec{"SLICC"});
    sweep.addComparison("Find", "FlexSC", cfg, TechniqueSpec{"FlexSC"});
    // SchedTask-only knobs don't change the Linux baseline either.
    sweep.addComparison("Find", "no-steal",
                        smallConfig().withSteal(StealPolicy::None),
                        TechniqueSpec{"SchedTask"});
    EXPECT_EQ(sweep.size(), 5u);

    // A baseline-relevant change (core count) gets its own run.
    sweep.addComparison("Find", "8-core",
                        smallConfig().withCores(8),
                        TechniqueSpec{"SchedTask"});
    EXPECT_EQ(sweep.size(), 7u);

    std::atomic<unsigned> baseline_runs{0};
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.onRunDone = [&](const RunRequest &req, const RunResult &) {
        if (req.isBaseline)
            ++baseline_runs;
    };
    const SweepResults results = SweepRunner(opts).run(sweep);
    EXPECT_EQ(results.size(), 7u);
    EXPECT_EQ(baseline_runs.load(), 2u);
}

TEST(SweepDedup, BaselinesNumberedPerRowInDeclarationOrder)
{
    // The App. Fig. 2 shape: a plain Linux reference, then the
    // comparisons against a CGP-equipped Linux baseline.
    Sweep sweep;
    for (const std::string bench : {"Find", "Iscp"}) {
        const ExperimentConfig plain = smallConfig(bench);
        sweep.addBaseline(bench, plain);
        for (const char *technique : {"SchedTask", "SLICC"}) {
            sweep.addComparison(bench, technique,
                                ExperimentConfig(plain).withCgpPrefetcher(),
                                TechniqueSpec{technique});
        }
        sweep.addBaseline(bench, plain); // already declared
    }
    std::vector<std::string> labels, compared_to;
    for (const RunRequest &req : sweep.requests()) {
        labels.push_back(req.label());
        if (!req.isBaseline)
            compared_to.push_back(req.baselineLabel);
    }
    EXPECT_EQ(labels, (std::vector<std::string>{
                          "Find/baseline #1", "Find/baseline #2",
                          "Find/SchedTask", "Find/SLICC",
                          "Iscp/baseline #1", "Iscp/baseline #2",
                          "Iscp/SchedTask", "Iscp/SLICC"}));
    EXPECT_EQ(compared_to, (std::vector<std::string>{
                               "Find/baseline #2", "Find/baseline #2",
                               "Iscp/baseline #2", "Iscp/baseline #2"}));
    EXPECT_FALSE(sweep.requests()[0].config.useCgpPrefetcher);
    EXPECT_TRUE(sweep.requests()[1].config.useCgpPrefetcher);
}

TEST(SweepRunnerTest, JobsOneAndFourBitwiseIdentical)
{
    const auto build = [] {
        Sweep sweep;
        for (const std::string bench : {"Find", "Iscp"}) {
            sweep.addComparison(bench, "SchedTask",
                                smallConfig(bench),
                                TechniqueSpec{"SchedTask"});
            sweep.addComparison(bench, "SLICC", smallConfig(bench),
                                TechniqueSpec{"SLICC"});
        }
        return sweep;
    };
    SweepOptions one, four;
    one.jobs = 1;
    one.progress = false;
    four.jobs = 4;
    four.progress = false;

    const Sweep sweep = build();
    const SweepResults serial = SweepRunner(one).run(sweep);
    const SweepResults parallel = SweepRunner(four).run(build());
    ASSERT_EQ(serial.size(), parallel.size());
    for (const RunRequest &req : sweep.requests()) {
        SCOPED_TRACE(req.label());
        expectBitwiseEqual(serial.at(req.label()),
                           parallel.at(req.label()));
    }
}

TEST(SweepRunnerTest, ConcurrentRunsMatchRunOnce)
{
    // Two simulations on two worker threads must produce exactly
    // what two sequential runOnce() calls produce — this guards
    // against any global mutable state shared between concurrent
    // Machine instances.
    const ExperimentConfig cfg = smallConfig();
    Sweep sweep;
    sweep.deriveSeeds(false);
    sweep.add("a", "Linux", cfg, TechniqueSpec{"Linux"});
    sweep.add("b", "SchedTask", cfg, TechniqueSpec{"SchedTask"});
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const SweepResults results = SweepRunner(opts).run(sweep);

    expectBitwiseEqual(results.at("a", "Linux"),
                       runOnce(cfg, TechniqueSpec{"Linux"}));
    expectBitwiseEqual(results.at("b", "SchedTask"),
                       runOnce(cfg, TechniqueSpec{"SchedTask"}));
}

TEST(SweepCross, BuildsFullMatrixWithBaselines)
{
    const Sweep sweep = Sweep::cross(
        {"Find", "Iscp"}, {TechniqueSpec{"SchedTask"}, TechniqueSpec{"SLICC"}},
        [](const std::string &bench) { return smallConfig(bench); });
    // 2 rows x (2 techniques + 1 shared baseline per row).
    EXPECT_EQ(sweep.size(), 6u);
    EXPECT_EQ(sweep.rows().size(), 2u);
    EXPECT_EQ(sweep.cols().size(), 2u);
}

TEST(SweepFluent, ChainingSetsFields)
{
    const ExperimentConfig cfg = ExperimentConfig::standard("Apache")
                                     .withCores(16)
                                     .withSteal(StealPolicy::None)
                                     .withHeatmapBits(1024)
                                     .withSeed(9)
                                     .withTraceCache();
    EXPECT_EQ(cfg.baselineCores, 16u);
    EXPECT_EQ(cfg.schedTask.stealPolicy, StealPolicy::None);
    EXPECT_EQ(cfg.machine.heatmapBits, 1024u);
    EXPECT_EQ(cfg.machine.seed, 9u);
    EXPECT_TRUE(cfg.useTraceCache);
    EXPECT_FALSE(cfg.useCgpPrefetcher);
}

TEST(SweepFluent, AggregateInitStillWorks)
{
    // The fluent helpers must not turn ExperimentConfig into a
    // non-aggregate (call sites use designated initializers).
    const ExperimentConfig cfg = {
        .baselineCores = 8,
        .hierarchy = HierarchyParams::paperDefault(),
        .machine = {},
        .parts = {{"Find", 1.0}},
        .warmupEpochs = 1,
        .measureEpochs = 1,
        .schedTask = {},
    };
    EXPECT_EQ(cfg.baselineCores, 8u);
    EXPECT_EQ(cfg.parts.size(), 1u);
}

TEST(SweepParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(64);
    parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepResultsDeath, UnknownLabelPanics)
{
    SweepResults results;
    EXPECT_DEATH((void)results.at("nope"), "no sweep result");
}

TEST(SweepDeath, UnregisteredTechniqueRejectedAtAdd)
{
    // A misspelt name is fatal while the sweep is declared, before
    // any run starts, and the message lists what is registered.
    Sweep sweep;
    sweep.add("row", "ok", smallConfig(), TechniqueSpec{"Linux"});
    EXPECT_DEATH(sweep.addComparison("row", "typo", smallConfig(),
                                     TechniqueSpec{"SchedTsak"}),
                 "row/typo: unknown technique 'SchedTsak' "
                 "\\(registered: .*SchedTask");
}

TEST(SweepDeath, InvalidConfigRejectedAtAdd)
{
    // ExperimentConfig::validate() runs at declaration too, so an
    // unbuildable figure config dies before any worker starts.
    Sweep sweep;
    EXPECT_DEATH(sweep.add("row", "wide", smallConfig().withHeatmapBits(63),
                           TechniqueSpec{"SchedTask"}),
                 "row/wide: heatmap width 63: expected a power of two "
                 "in \\[64, 65536\\]");
    EXPECT_DEATH(sweep.addComparison("row", "big",
                                     smallConfig().withCores(65),
                                     TechniqueSpec{"SchedTask"}),
                 "needs 65 cores .* supports 1\\.\\.64");
    EXPECT_DEATH(sweep.add("row", "typo", smallConfig("Fnid"),
                           TechniqueSpec{"Linux"}),
                 "row/typo: unknown benchmark 'Fnid' \\(known: Find");
    EXPECT_DEATH(sweep.add("row", "l1i", smallConfig().withL1ISize(48 * 1024),
                           TechniqueSpec{"Linux"}),
                 "row/l1i: hierarchy.l1i: 49152 B, 4-way");
}

TEST(SweepDeath, RepeatedLabelRejectedAtAdd)
{
    // A second run under a taken label would lose its result to the
    // first one's: at() would answer both with the first config.
    Sweep sweep;
    sweep.addComparison("row", "SchedTask", smallConfig(),
                        TechniqueSpec{"SchedTask"});
    EXPECT_DEATH(sweep.add("row", "SchedTask",
                           smallConfig().withSteal(StealPolicy::None),
                           TechniqueSpec{"SchedTask"}),
                 "sweep run row/SchedTask: the label is already declared");
    EXPECT_DEATH(sweep.addComparison("row", "SchedTask", smallConfig(),
                                     TechniqueSpec{"SchedTask"}),
                 "row/SchedTask: the label is already declared");
    // Baselines and display columns share one label space.
    EXPECT_DEATH(sweep.add("row", "baseline #1", smallConfig(),
                           TechniqueSpec{"Linux"}),
                 "row/baseline #1: the label is already declared");
    Sweep column_first;
    column_first.add("row", "baseline #1", smallConfig(),
                     TechniqueSpec{"Linux"});
    EXPECT_DEATH(column_first.addComparison("row", "SchedTask",
                                            smallConfig(),
                                            TechniqueSpec{"SchedTask"}),
                 "row/baseline #1: the label is already declared");
}

TEST(ExperimentConfigValidate, AcceptsRunnableRejectsOthers)
{
    // validate()'s message for `spec` on `cfg`; "" when runnable.
    auto problem = [](const ExperimentConfig &cfg, const char *spec) {
        return cfg.validate(TechniqueSpec{spec}).value_or("");
    };
    const auto npos = std::string::npos;
    EXPECT_EQ(problem(smallConfig(), "SchedTask"), "");
    EXPECT_EQ(problem(ExperimentConfig{}, "Linux"),
              "the workload has no benchmark parts");
    EXPECT_EQ(problem(ExperimentConfig::standardBag("MPW-A"), "Linux"), "");
    // SelectiveOffload doubles the core count: 32 fits, 33 does not.
    EXPECT_EQ(problem(smallConfig().withCores(32), "SelectiveOffload"), "");
    EXPECT_NE(problem(smallConfig().withCores(33), "SelectiveOffload")
                  .find("needs 66 cores"), npos);
    EXPECT_NE(problem(smallConfig(), "SchedTask:steal=none")
                  .find("unknown technique 'SchedTask:steal=none'"), npos);
    EXPECT_EQ(problem(smallConfig().withDemandSmoothing(-0.5), "SchedTask"),
              "schedTask.demandSmoothing must be in [0, 1]");
    EXPECT_NE(problem(ExperimentConfig::standard("Apache", 1e-6), "Linux")
                  .find("Apache would run 0 threads"), npos);
}

TEST(ExperimentConfigValidate, RejectsUnsupportedCacheGeometry)
{
    // Each bad level is rejected at declaration, by a message that
    // names it; the same config with the level restored is runnable.
    const auto npos = std::string::npos;
    auto problem = [](const std::function<void(HierarchyParams &)> &bad) {
        ExperimentConfig cfg = smallConfig();
        bad(cfg.hierarchy);
        return cfg.validate(TechniqueSpec{"Linux"}).value_or("");
    };
    EXPECT_EQ(problem([](HierarchyParams &) {}), "");
    const std::string two_way =
        problem([](HierarchyParams &h) { h.l1i.assoc = 2; });
    EXPECT_NE(two_way.find("hierarchy.l1i: 32768 B, 2-way, 64 B blocks"),
              npos) << two_way;
    EXPECT_NE(two_way.find("4 or 8 ways and a power-of-two number of sets"),
              npos) << two_way;
    const std::string sets_192 =
        problem([](HierarchyParams &h) { h.l1i.sizeBytes = 48 * 1024; });
    EXPECT_NE(sets_192.find("hierarchy.l1i: 49152 B, 4-way"), npos)
        << sets_192;
    const std::string tlb_3_way =
        problem([](HierarchyParams &h) { h.dtlb.assoc = 3; });
    EXPECT_NE(tlb_3_way.find("hierarchy.dtlb: "), npos) << tlb_3_way;
    EXPECT_NE(tlb_3_way.find("3-way"), npos) << tlb_3_way;
    const std::string l1d_128 =
        problem([](HierarchyParams &h) { h.l1d.blockBytes = 128; });
    EXPECT_NE(l1d_128.find("hierarchy.l1d: 128 B blocks; the L1, L2 and "
                           "LLC levels must use 64 B blocks"),
              npos) << l1d_128;
    // Config1/Config2 build no private L2, so its params are not
    // checked there.
    EXPECT_EQ(problem([](HierarchyParams &h) {
                  h = HierarchyParams::config1();
                  h.l2.assoc = 2;
              }),
              "");
}

/** A named one-field perturbation of a T, for the key tests below. */
#define PERTURB(T, stmt) \
    std::pair<std::string, std::function<void(T &)>>( \
        #stmt, [](T &c) { stmt; })

namespace
{

/** cellKey() of a Find request running `technique` on `cfg`. */
CellKey
keyOf(const char *technique, const ExperimentConfig &cfg)
{
    RunRequest req;
    req.row = "Find";
    req.col = technique;
    req.config = cfg;
    req.spec = TechniqueSpec{technique};
    return cellKey(req);
}

} // namespace

TEST(SweepFingerprint, EveryMixedFieldChangesIt)
{
    // Every field a Linux run can observe splits its cell; an
    // ignored one would merge distinct Linux baselines silently.
    using Cfg = ExperimentConfig;
    auto mixed = std::vector{
        PERTURB(Cfg, c.parts[0].benchmark = "Iscp"),
        PERTURB(Cfg, c.parts[0].scale = 1.5),
        PERTURB(Cfg, c.parts.push_back({"Find", 1.0})),
        PERTURB(Cfg, c.baselineCores = 8),
        PERTURB(Cfg, c.warmupEpochs = 3),
        PERTURB(Cfg, c.measureEpochs = 3),
        PERTURB(Cfg, c.useCgpPrefetcher = true),
        PERTURB(Cfg, c.useTraceCache = true),
        PERTURB(Cfg, c.machine.epochCycles += 1),
        PERTURB(Cfg, c.machine.coreFrequencyGHz += 0.5),
        PERTURB(Cfg, c.machine.seed += 1),
        PERTURB(Cfg, c.machine.trackExactPages = true),
        PERTURB(Cfg, c.hierarchy.hasPrivateL2 = false),
        PERTURB(Cfg, c.hierarchy.memLatency += 1),
        PERTURB(Cfg, c.hierarchy.frontendBubbleCycles += 1),
        PERTURB(Cfg, c.hierarchy.remoteFillLatency += 1),
        PERTURB(Cfg, c.hierarchy.dataHideFactor -= 0.25),
        PERTURB(Cfg, c.hierarchy.dtlbHideFactor -= 0.25),
    };
    const auto cache_fields = std::vector{
        PERTURB(CacheParams, c.sizeBytes *= 2),
        PERTURB(CacheParams, c.assoc *= 2),
        PERTURB(CacheParams, c.blockBytes *= 2),
        PERTURB(CacheParams, c.latency += 1),
    };
    for (const auto &[level, member] :
         {std::pair{"l1i", &HierarchyParams::l1i},
          std::pair{"l1d", &HierarchyParams::l1d},
          std::pair{"l2", &HierarchyParams::l2},
          std::pair{"llc", &HierarchyParams::llc}}) {
        for (const auto &[field, perturb] : cache_fields) {
            mixed.emplace_back(level + (": " + field),
                               [m = member, f = perturb](Cfg &c) {
                                   f(c.hierarchy.*m);
                               });
        }
    }
    const auto tlb_fields = std::vector{
        PERTURB(TlbParams, c.entries *= 2),
        PERTURB(TlbParams, c.assoc *= 2),
        PERTURB(TlbParams, c.missPenalty += 1),
    };
    for (const auto &[tlb, member] :
         {std::pair{"itlb", &HierarchyParams::itlb},
          std::pair{"dtlb", &HierarchyParams::dtlb}}) {
        for (const auto &[field, perturb] : tlb_fields) {
            mixed.emplace_back(tlb + (": " + field),
                               [m = member, f = perturb](Cfg &c) {
                                   f(c.hierarchy.*m);
                               });
        }
    }

    const CellKey base = keyOf("Linux", smallConfig());
    for (const auto &[field, perturb] : mixed) {
        ExperimentConfig cfg = smallConfig();
        perturb(cfg);
        EXPECT_TRUE(keyOf("Linux", cfg) != base) << field;
    }
}

TEST(SweepFingerprint, IgnoresFieldsLinuxCannotObserve)
{
    // numCores is filled in per technique, for every technique.
    using Cfg = ExperimentConfig;
    const auto ignored = std::vector{
        PERTURB(Cfg, c.machine.heatmapBits = 1024),
        PERTURB(Cfg, c.schedTask.stealPolicy = StealPolicy::None),
        PERTURB(Cfg, c.schedTask.routeInterrupts = false),
        PERTURB(Cfg, c.schedTask.useExactOverlap = true),
        PERTURB(Cfg, c.schedTask.demandSmoothing = 1.0),
        PERTURB(Cfg, c.machine.numCores = 7),
    };
    const CellKey base = keyOf("Linux", smallConfig());
    for (const auto &[field, perturb] : ignored) {
        ExperimentConfig cfg = smallConfig();
        perturb(cfg);
        EXPECT_TRUE(keyOf("Linux", cfg) == base) << field;
    }
    ExperimentConfig cores = smallConfig();
    cores.machine.numCores = 7;
    EXPECT_TRUE(keyOf("SchedTask", cores)
                == keyOf("SchedTask", smallConfig()));
}

TEST(SweepCellKey, SchedTaskFieldsSplitOnlyNonBaselineCells)
{
    // The union run merges requests with equal keys, so a field a
    // run can observe must split its key. A Linux run cannot see the
    // heatmap width or any SchedTaskParams field, so those must not
    // split a Linux key (or baselines would stop being shared).
    using Cfg = ExperimentConfig;
    const auto perturbations = std::vector{
        PERTURB(Cfg, c.machine.heatmapBits = 1024),
        PERTURB(Cfg, c.schedTask.stealPolicy = StealPolicy::None),
        PERTURB(Cfg, c.schedTask.routeInterrupts = false),
        PERTURB(Cfg, c.schedTask.useExactOverlap = true),
        PERTURB(Cfg, c.schedTask.demandSmoothing = 1.0),
    };
    const CellKey schedtask = keyOf("SchedTask", smallConfig());
    const CellKey linux_key = keyOf("Linux", smallConfig());
    EXPECT_TRUE(schedtask != linux_key);
    for (const auto &[field, perturb] : perturbations) {
        ExperimentConfig cfg = smallConfig();
        perturb(cfg);
        EXPECT_TRUE(keyOf("SchedTask", cfg) != schedtask) << field;
        EXPECT_TRUE(keyOf("Linux", cfg) == linux_key) << field;
    }
}

TEST(SweepCellKey, TraceSplitsEveryCell)
{
    // Tracing changes no simulated number, but a traced request needs
    // the telemetry an untraced twin's result lacks.
    ExperimentConfig traced = smallConfig();
    traced.machine.trace = true;
    for (const char *technique : {"Linux", "SchedTask"}) {
        EXPECT_TRUE(keyOf(technique, smallConfig())
                    != keyOf(technique, traced))
            << technique;
    }
}

namespace
{

/** Three sweeps that share cells: the second repeats two of the
 *  first's cells under other labels and reuses the label
 *  Find/SchedTask for a cell of its own, the third repeats the
 *  first. */
std::vector<Sweep>
overlappingSweeps()
{
    std::vector<Sweep> sweeps(3);
    sweeps[0] = Sweep::cross(
        {"Find", "Iscp"}, {TechniqueSpec{"SchedTask"},
                           TechniqueSpec{"SLICC"}},
        [](const std::string &bench) { return smallConfig(bench); });
    sweeps[1].add("Find", "Linux", smallConfig(), TechniqueSpec{"Linux"});
    sweeps[1].addComparison("Find", "default", smallConfig(),
                            TechniqueSpec{"SchedTask"});
    sweeps[1].addComparison("Find", "SchedTask",
                            smallConfig().withSteal(StealPolicy::None),
                            TechniqueSpec{"SchedTask"});
    sweeps[2] = sweeps[0];
    return sweeps;
}

/** 2 baselines + 4 techniques, plus the no-steal variant. */
constexpr unsigned overlappingCells = 7;

} // namespace

TEST(SweepUnion, SharedCellsRunOnceAndMatchStandalone)
{
    const std::vector<Sweep> sweeps = overlappingSweeps();
    std::vector<const Sweep *> all;
    for (const Sweep &sweep : sweeps)
        all.push_back(&sweep);

    std::atomic<unsigned> runs{0};
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.onRunDone = [&runs](const RunRequest &, const RunResult &) {
        ++runs;
    };
    const std::vector<SweepResults> union_results =
        SweepRunner(opts).runAll(all);
    EXPECT_EQ(runs.load(), overlappingCells);
    ASSERT_EQ(union_results.size(), sweeps.size());

    opts.onRunDone = nullptr;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const SweepResults alone = SweepRunner(opts).run(sweeps[s]);
        ASSERT_EQ(union_results[s].size(), alone.size()) << s;
        for (const RunRequest &req : sweeps[s].requests()) {
            SCOPED_TRACE(req.label());
            expectBitwiseEqual(union_results[s].at(req.label()),
                               alone.at(req.label()));
        }
    }
}

TEST(SweepUnion, OneTracePairPerDistinctCell)
{
    // Labels such as Find/SchedTask recur across the sweeps; each
    // distinct cell still gets its own file pair, none overwritten,
    // numbered among the cells that share its first label.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir())
        / ("schedtask_union_traces." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const std::vector<Sweep> sweeps = overlappingSweeps();
    std::vector<const Sweep *> all;
    for (const Sweep &sweep : sweeps)
        all.push_back(&sweep);
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.traceDir = dir.string();
    (void)SweepRunner(opts).runAll(all);

    std::set<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    std::set<std::string> expected;
    for (const char *stem :
         {"Find_baseline__1@1", "Find_SchedTask@1", "Find_SLICC@1",
          "Iscp_baseline__1@1", "Iscp_SchedTask@1", "Iscp_SLICC@1",
          "Find_SchedTask@2"}) {
        expected.insert(std::string(stem) + ".trace.json");
        expected.insert(std::string(stem) + ".jsonl");
    }
    EXPECT_EQ(expected.size(), 2 * overlappingCells);
    EXPECT_EQ(names, expected);
    std::filesystem::remove_all(dir);
}

TEST(SweepUnion, TracedTwinGetsItsOwnCell)
{
    // Two requests that differ only in machine.trace, the untraced
    // one first: each must get its own run, and the traced label its
    // telemetry.
    ExperimentConfig traced = smallConfig();
    traced.machine.trace = true;
    Sweep sweep;
    sweep.add("Find", "plain", smallConfig(), TechniqueSpec{"SchedTask"});
    sweep.add("Find", "traced", traced, TechniqueSpec{"SchedTask"});

    std::atomic<unsigned> runs{0};
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.onRunDone = [&runs](const RunRequest &, const RunResult &) {
        ++runs;
    };
    const SweepResults results = SweepRunner(opts).run(sweep);
    EXPECT_EQ(runs.load(), 2u);
    EXPECT_TRUE(results.at("Find", "plain").metrics.epochSamples.empty());
    EXPECT_EQ(results.at("Find", "traced").metrics.epochSamples.size(),
              static_cast<std::size_t>(traced.measureEpochs));
    expectBitwiseEqual(results.at("Find", "plain"),
                       results.at("Find", "traced"));
}

TEST(SweepUnion, TracedComparisonGetsTracedBaseline)
{
    // The same comparison untraced, then traced: the traced run must
    // be compared against a traced baseline, not share the untraced
    // one (which carries no epoch samples).
    ExperimentConfig traced = smallConfig();
    traced.machine.trace = true;
    Sweep sweep;
    sweep.addComparison("Find", "plain", smallConfig(),
                        TechniqueSpec{"SchedTask"});
    sweep.addComparison("Find", "traced", traced,
                        TechniqueSpec{"SchedTask"});
    ASSERT_EQ(sweep.requests().size(), 4u);

    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const SweepResults results = SweepRunner(opts).run(sweep);
    for (const RunRequest &req : sweep.requests()) {
        if (req.isBaseline)
            continue;
        SCOPED_TRACE(req.label());
        const RunResult &base = results.at(req.baselineLabel);
        EXPECT_EQ(base.metrics.epochSamples.empty(),
                  !req.config.machine.trace);
    }
    const SweepReport report(sweep, results);
    EXPECT_TRUE(report.baselineOf("Find").metrics.epochSamples.empty());
    expectBitwiseEqual(
        results.at(sweep.requests()[0].label()),
        results.at(sweep.requests()[2].label()));
}

TEST(SweepFailure, SerialStopsDispatchAfterFirstFailure)
{
    // Four runs, the second one fails: the first completes, and the
    // remaining two must never be dispatched (the old runner kept
    // burning CPU on every remaining run after a failure).
    Sweep sweep;
    for (const std::string row : {"a", "b", "c", "d"})
        sweep.add(row, "Linux", smallConfig(), TechniqueSpec{"Linux"});

    std::atomic<unsigned> starts{0};
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.onRunStart = [&](const RunRequest &req) {
        ++starts;
        if (req.row == "b")
            throw std::runtime_error("injected failure");
    };
    std::vector<std::string> failures;
    const SweepResults results =
        SweepRunner(opts).runPartial(sweep, failures);

    EXPECT_EQ(starts.load(), 2u);
    EXPECT_EQ(results.size(), 1u);
    EXPECT_TRUE(results.has("a/Linux"));
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0], "b/Linux: injected failure");
}

TEST(SweepFailure, AggregatesEveryConcurrentFailure)
{
    // Two workers claim both runs before either fails; the old
    // runner reported only whichever failure it noticed first.
    Sweep sweep;
    sweep.add("a", "Linux", smallConfig(), TechniqueSpec{"Linux"});
    sweep.add("b", "Linux", smallConfig(), TechniqueSpec{"Linux"});

    std::latch both_claimed(2);
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.onRunStart = [&](const RunRequest &req) {
        both_claimed.arrive_and_wait();
        throw std::runtime_error("boom-" + req.row);
    };
    std::vector<std::string> failures;
    const SweepResults results =
        SweepRunner(opts).runPartial(sweep, failures);

    EXPECT_EQ(results.size(), 0u);
    ASSERT_EQ(failures.size(), 2u);
    const std::string joined = failures[0] + "; " + failures[1];
    EXPECT_NE(joined.find("a/Linux: boom-a"), std::string::npos);
    EXPECT_NE(joined.find("b/Linux: boom-b"), std::string::npos);
}

TEST(SweepFailureDeath, RunFatalNamesFailedLabel)
{
    Sweep sweep;
    sweep.add("row", "bad", smallConfig(), TechniqueSpec{"Linux"});
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.onRunStart = [](const RunRequest &) {
        throw std::runtime_error("injected failure");
    };
    EXPECT_DEATH((void)SweepRunner(opts).run(sweep),
                 "sweep run failed.*row/bad: injected failure");
}

TEST(SweepReportDeath, MissingRunResultNamesLabel)
{
    // The old lookups died with a bare "no sweep result labelled"
    // (or worse, relied on map::at); the report must say which run
    // is missing from which report path.
    Sweep sweep;
    sweep.add("row", "run", smallConfig(), TechniqueSpec{"Linux"});
    const SweepResults empty;
    const SweepReport report(sweep, empty);
    EXPECT_DEATH(
        (void)report.matrixAbsolute(
            [](const RunResult &) { return 0.0; }),
        "missing run result 'row/run'");
}

TEST(SweepReportDeath, MissingBaselineResultNamesRun)
{
    Sweep sweep;
    sweep.addComparison("row", "SchedTask", smallConfig(),
                        TechniqueSpec{"SchedTask"});
    const SweepResults empty;
    const SweepReport report(sweep, empty);
    EXPECT_DEATH((void)report.appPerfChange(),
                 "missing baseline result '.*' for run "
                 "'row/SchedTask'");
}

namespace
{

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(SweepTrace, TraceDirWritesValidFilesWithoutPerturbingResults)
{
    // Pid-suffixed so overlapping test runs cannot race on the
    // directory (see the LintCliTest fixture for the same pattern).
    const std::string dir = ::testing::TempDir()
        + "schedtask_sweep_traces." + std::to_string(::getpid());

    const auto build = [] {
        Sweep sweep;
        sweep.add("row", "SchedTask", smallConfig(),
                  TechniqueSpec{"SchedTask"});
        return sweep;
    };
    SweepOptions plain;
    plain.jobs = 1;
    plain.progress = false;
    SweepOptions traced = plain;
    traced.traceDir = dir;

    const SweepResults with = SweepRunner(traced).run(build());
    const SweepResults without = SweepRunner(plain).run(build());
    expectBitwiseEqual(with.at("row", "SchedTask"),
                       without.at("row", "SchedTask"));

    // Labels are flattened ('/' -> '_') and numbered among the
    // cells that share them: one file pair per distinct cell.
    const std::string stem = dir + "/row_SchedTask@1";
    const std::string chrome = readFileOrEmpty(stem + ".trace.json");
    const std::string jsonl = readFileOrEmpty(stem + ".jsonl");
    std::string error;
    ASSERT_FALSE(chrome.empty());
    EXPECT_TRUE(validateJson(chrome, &error)) << error;
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    ASSERT_FALSE(jsonl.empty());
    EXPECT_TRUE(validateJsonLines(jsonl, &error)) << error;
}
