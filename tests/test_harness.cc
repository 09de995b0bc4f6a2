/**
 * @file
 * Tests for the experiment harness and the reporting helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hh"
#include "harness/reporting.hh"

using namespace schedtask;

TEST(Harness, TechniqueNamesRoundTrip)
{
    EXPECT_STREQ(makeScheduler(TechniqueSpec{"Linux"})->name(), "Linux");
    EXPECT_STREQ(makeScheduler(TechniqueSpec{"schedtask"})->name(),
                 "SchedTask");
    EXPECT_EQ(comparedTechniques().size(), 5u);
}

TEST(Harness, MakeSchedulerMatchesName)
{
    for (const TechniqueSpec &t : comparedTechniques()) {
        auto sched = makeScheduler(t);
        EXPECT_EQ(sched->name(), t.name);
    }
}

TEST(Harness, PercentChangeBasics)
{
    EXPECT_DOUBLE_EQ(percentChange(100.0, 110.0), 10.0);
    EXPECT_DOUBLE_EQ(percentChange(100.0, 50.0), -50.0);
    EXPECT_DOUBLE_EQ(percentChange(0.0, 50.0), 0.0);
}

TEST(Harness, PointChangeBasics)
{
    EXPECT_NEAR(pointChange(0.80, 0.95), 15.0, 1e-12);
    EXPECT_NEAR(pointChange(0.95, 0.80), -15.0, 1e-12);
}

TEST(Harness, StandardConfigShape)
{
    const ExperimentConfig cfg = ExperimentConfig::standard("Apache");
    ASSERT_EQ(cfg.parts.size(), 1u);
    EXPECT_EQ(cfg.parts[0].benchmark, "Apache");
    EXPECT_DOUBLE_EQ(cfg.parts[0].scale, 2.0);
    EXPECT_EQ(cfg.baselineCores, 32u);
}

TEST(Harness, StandardBagConfigShape)
{
    const ExperimentConfig cfg =
        ExperimentConfig::standardBag("MPW-B");
    EXPECT_EQ(cfg.parts.size(), 2u);
}

TEST(Harness, RunOnceProducesConsistentResult)
{
    ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0);
    cfg.baselineCores = 8;
    cfg.warmupEpochs = 1;
    cfg.measureEpochs = 2;
    const RunResult r = runOnce(cfg, TechniqueSpec{"Linux"});
    EXPECT_EQ(r.numCores, 8u);
    EXPECT_GT(r.instThroughput(), 0.0);
    EXPECT_GT(r.appPerformance(), 0.0);
    EXPECT_GE(r.idlePercent(), 0.0);
    EXPECT_GT(r.iHitApp, 0.3);
    EXPECT_LE(r.iHitApp, 1.0);
}

TEST(Harness, SelectiveOffloadUsesDoubleCores)
{
    ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0);
    cfg.baselineCores = 4;
    cfg.warmupEpochs = 1;
    cfg.measureEpochs = 1;
    const RunResult r = runOnce(cfg, TechniqueSpec{"SelectiveOffload"});
    EXPECT_EQ(r.numCores, 8u);
}

TEST(Harness, RunsAreReproducible)
{
    ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0);
    cfg.baselineCores = 4;
    cfg.warmupEpochs = 1;
    cfg.measureEpochs = 1;
    const RunResult a = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const RunResult b = runOnce(cfg, TechniqueSpec{"SchedTask"});
    EXPECT_EQ(a.metrics.instsRetired, b.metrics.instsRetired);
    EXPECT_EQ(a.metrics.appEvents, b.metrics.appEvents);
}

TEST(Harness, CustomSchedulerSupported)
{
    // The public extension point: run any Scheduler implementation.
    class PinToZero : public QueueScheduler
    {
      public:
        const char *name() const override { return "PinToZero"; }

      protected:
        CoreId
        choosePlacement(SuperFunction *, PlacementReason) override
        {
            return 0;
        }
    };

    ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0);
    cfg.baselineCores = 4;
    cfg.warmupEpochs = 1;
    cfg.measureEpochs = 1;
    PinToZero sched;
    const RunResult r = runWithScheduler(cfg, sched);
    // Everything on one core: at least ~3/4 idle.
    EXPECT_GT(r.idlePercent(), 50.0);
    EXPECT_GT(r.metrics.appEvents, 0u);
}

TEST(Reporting, SeriesMatrixStoresAndAggregates)
{
    SeriesMatrix m({"r1", "r2"}, {"c1", "c2"});
    m.set("r1", "c1", 10.0);
    m.set("r2", "c1", -10.0);
    m.set("r1", "c2", 5.0);
    EXPECT_DOUBLE_EQ(m.get("r1", "c1"), 10.0);
    EXPECT_DOUBLE_EQ(m.get("r2", "c2"), 0.0);
    const auto col = m.column("c1");
    EXPECT_EQ(col.size(), 2u);

    const std::string out = m.renderWithGmean("corner");
    EXPECT_NE(out.find("gmean"), std::string::npos);
    EXPECT_NE(out.find("+10.0"), std::string::npos);
    EXPECT_NE(out.find("-10.0"), std::string::npos);
}

TEST(ReportingDeath, UnknownRowPanics)
{
    SeriesMatrix m({"r"}, {"c"});
    EXPECT_DEATH(m.set("bogus", "c", 1.0), "unknown row");
}

TEST(Harness, FastModeShrinksWindows)
{
    setenv("SCHEDTASK_FAST", "1", 1);
    const ExperimentConfig fast = ExperimentConfig::standard("Find");
    unsetenv("SCHEDTASK_FAST");
    const ExperimentConfig full = ExperimentConfig::standard("Find");
    EXPECT_LT(fast.measureEpochs, full.measureEpochs);
}
