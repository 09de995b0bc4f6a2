/**
 * @file
 * Tests for the epoch-telemetry layer: the bounded rings, the
 * Machine's per-epoch sampling (delta accounting, per-core category
 * occupancy, scheduler decision reports, the Figure 11 ranking tau),
 * the SuperFunction lifecycle events, zero observer effect on
 * results, and the JSONL / Chrome-trace exporters.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/math_utils.hh"
#include "core/overlap_table.hh"
#include "core/schedtask_sched.hh"
#include "harness/experiment.hh"
#include "harness/trace_export.hh"
#include "sim/machine.hh"
#include "stats/epoch_trace.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** A small traced configuration (2 warmup + 3 measured epochs). */
ExperimentConfig
tracedConfig(const std::string &bench = "Apache")
{
    ExperimentConfig cfg = ExperimentConfig::standard(bench, 1.0)
                               .withCores(8)
                               .withEpochs(2, 3);
    cfg.machine.trace = true;
    return cfg;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

SfEvent
event(Cycles when, SfEventKind kind)
{
    SfEvent e;
    e.when = when;
    e.kind = kind;
    return e;
}

/**
 * The Figure 11 tau as schedtask-figures computed it before the
 * epoch report carried it, kept as the reference: the stats table's
 * Bloom ranking scored against the exact pages a Machine tracked.
 */
double
referenceTau(const StatsTable &stats, const ExactPageSets &exact_pages)
{
    const OverlapTable bloom = OverlapTable::fromHeatmaps(stats);

    auto exactOverlap = [&](SfType a, SfType b) -> double {
        auto ia = exact_pages.find(a.raw());
        auto ib = exact_pages.find(b.raw());
        if (ia == exact_pages.end() || ib == exact_pages.end())
            return 0.0;
        double common = 0.0;
        for (Addr pf : ia->second)
            common += ib->second.count(pf) ? 1.0 : 0.0;
        return common;
    };

    std::vector<double> taus;
    for (const auto &[raw, entry] : stats.rows()) {
        const SfType type = SfType::fromRaw(raw);
        const auto &peers = bloom.peersOf(type);
        if (peers.size() < 3)
            continue;
        std::vector<double> bloom_scores, exact_scores;
        std::unordered_set<std::uint64_t> distinct;
        for (const OverlapPeer &peer : peers) {
            bloom_scores.push_back(static_cast<double>(peer.overlap));
            const double ex = exactOverlap(type, peer.type);
            exact_scores.push_back(ex);
            distinct.insert(static_cast<std::uint64_t>(ex));
        }
        if (distinct.size() < 3)
            continue;
        taus.push_back(kendallTauB(bloom_scores, exact_scores));
    }
    return arithmeticMean(taus);
}

/** SchedTask that computes referenceTau() right after each TAlloc
 *  run, before the epoch boundary clears the machine's exact pages. */
class ReferenceTauScheduler : public SchedTaskScheduler
{
  public:
    void
    onEpoch() override
    {
        SchedTaskScheduler::onEpoch();
        tau = referenceTau(talloc().systemStats(),
                           machine_->exactPagesByType());
    }

    double tau = 0.0;
};

/** The reference tau of a 4 + 1 epoch SchedTask run driven by hand:
 *  4 epochs, a check that the boundary cleared the exact pages, and
 *  the one epoch whose boundary computes the tau. */
double
handDrivenTau(const ExperimentConfig &cfg)
{
    BenchmarkSuite suite;
    Workload workload =
        Workload::build(suite, cfg.parts, cfg.baselineCores);
    MachineParams mp = cfg.machine;
    mp.numCores = cfg.baselineCores;
    mp.trackExactPages = true;
    mp.trace = false;
    ReferenceTauScheduler sched;
    Machine machine(mp, cfg.hierarchy, suite, workload, sched);
    machine.run(4 * mp.epochCycles);
    EXPECT_GT(sched.tau, 0.0);
    // The exact-page window is one epoch, aligned with the stats
    // table TAlloc aggregates.
    EXPECT_TRUE(machine.exactPagesByType().empty());
    machine.run(mp.epochCycles);
    return sched.tau;
}

} // namespace

TEST(EpochTraceRing, KeepsMostRecentSamples)
{
    EpochTrace trace(3, 1);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EpochSample s;
        s.index = i;
        trace.record(s);
    }
    EXPECT_EQ(trace.samples().size(), 3u);
    EXPECT_EQ(trace.samples().totalRecorded(), 5u);
    const std::vector<EpochSample> samples = trace.samples().items();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].index, 2u);
    EXPECT_EQ(samples[1].index, 3u);
    EXPECT_EQ(samples[2].index, 4u);

    trace.clear();
    EXPECT_EQ(trace.samples().size(), 0u);
    EXPECT_EQ(trace.samples().totalRecorded(), 0u);
    EXPECT_TRUE(trace.samples().items().empty());
}

TEST(EpochTraceRingDeath, ZeroCapacityPanics)
{
    EXPECT_DEATH(EpochTrace trace(0, 1), "capacity");
}

TEST(BoundedRing, KeepsEventsInOrder)
{
    BoundedRing<SfEvent> ring(8);
    ring.push(event(1, SfEventKind::Dispatch));
    ring.push(event(2, SfEventKind::Block));
    ring.push(event(3, SfEventKind::Wakeup));
    const auto events = ring.items();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].when, 1u);
    EXPECT_EQ(events[2].kind, SfEventKind::Wakeup);
}

TEST(BoundedRing, RingDropsOldest)
{
    BoundedRing<SfEvent> ring(4);
    for (Cycles t = 0; t < 10; ++t)
        ring.push(event(t, SfEventKind::Dispatch));
    const auto events = ring.items();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().when, 6u);
    EXPECT_EQ(events.back().when, 9u);
    EXPECT_EQ(ring.totalRecorded(), 10u);
}

TEST(BoundedRing, ClearEmpties)
{
    BoundedRing<SfEvent> ring(4);
    ring.push(event(1, SfEventKind::Dispatch));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalRecorded(), 0u);
    EXPECT_TRUE(ring.items().empty());
}

TEST(SfEvents, KindNames)
{
    EXPECT_STREQ(sfEventKindName(SfEventKind::Dispatch), "dispatch");
    EXPECT_STREQ(sfEventKindName(SfEventKind::Migrate), "migrate");
    EXPECT_STREQ(sfEventKindName(SfEventKind::Pause), "pause");
}

TEST(SfEvents, MachineRecordsLifecycle)
{
    ExperimentConfig cfg = ExperimentConfig::standard("Apache", 1.0)
                               .withCores(8)
                               .withEpochCycles(50000)
                               .withEpochs(0, 8);
    cfg.machine.trace = true;
    const RunResult r = runOnce(cfg, TechniqueSpec{"Linux"});

    bool saw[6] = {};
    Cycles last = 0;
    for (const SfEvent &e : r.metrics.sfEvents) {
        saw[static_cast<unsigned>(e.kind)] = true;
        EXPECT_GE(e.when, last);
        EXPECT_LT(e.core, r.numCores);
        last = e.when;
    }
    for (SfEventKind kind :
         {SfEventKind::Dispatch, SfEventKind::Block, SfEventKind::Wakeup,
          SfEventKind::Complete, SfEventKind::Pause})
        EXPECT_TRUE(saw[static_cast<unsigned>(kind)])
            << sfEventKindName(kind);
    EXPECT_GT(r.metrics.sfEvents.size(), 100u);
    EXPECT_LE(r.metrics.sfEvents.size(), traceEventCapacity);
    EXPECT_LE(last, r.metrics.cycles);
}

TEST(SfEvents, TraceOffRecordsNoEvents)
{
    ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0)
                               .withCores(2)
                               .withEpochCycles(20000)
                               .withEpochs(0, 1);
    const RunResult r = runOnce(cfg, TechniqueSpec{"Linux"});
    EXPECT_GT(r.metrics.instsRetired, 0u);
    EXPECT_TRUE(r.metrics.sfEvents.empty());
    EXPECT_TRUE(r.metrics.epochSamples.empty());
}

TEST(EpochTraceMachine, OneSamplePerMeasuredEpoch)
{
    const ExperimentConfig cfg = tracedConfig();
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const std::vector<EpochSample> &samples = r.metrics.epochSamples;

    // Warmup epochs are cleared by resetStats; the measured window
    // contributes exactly measureEpochs boundary samples.
    ASSERT_EQ(samples.size(),
              static_cast<std::size_t>(cfg.measureEpochs));
    const Cycles epoch = cfg.machine.epochCycles;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(samples[i].index, i);
        EXPECT_EQ(samples[i].startCycle - samples[0].startCycle,
                  i * epoch);
        EXPECT_EQ(samples[i].endCycle - samples[i].startCycle, epoch);
        EXPECT_EQ(samples[i].cores.size(), r.numCores);
    }
}

TEST(EpochTraceMachine, SamplesAreExactDeltasOfWindowTotals)
{
    const ExperimentConfig cfg = tracedConfig();
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const SimMetrics &m = r.metrics;
    ASSERT_FALSE(m.epochSamples.empty());

    std::uint64_t insts = 0, overhead = 0, idle = 0;
    std::uint64_t migrations = 0, irqs = 0;
    for (const EpochSample &s : m.epochSamples) {
        insts += s.instsRetired;
        overhead += s.overheadInsts;
        idle += s.idleCycles;
        migrations += s.migrations;
        irqs += s.irqCount;

        // Per-core category occupancy covers exactly the epoch's
        // non-overhead instructions, and per-core idle cycles sum
        // to the epoch's total.
        std::uint64_t core_insts = 0, core_idle = 0;
        for (const EpochCoreSample &c : s.cores) {
            core_idle += c.idleCycles;
            for (unsigned cat = 0; cat < numSfCategories; ++cat)
                core_insts += c.instsByCategory[cat];
        }
        EXPECT_EQ(core_insts, s.instsRetired - s.overheadInsts);
        EXPECT_EQ(core_idle, s.idleCycles);
        // So does the per-type breakup.
        std::uint64_t type_insts = 0;
        for (const auto &[type, n] : s.instsByType)
            type_insts += n;
        EXPECT_EQ(type_insts, s.instsRetired - s.overheadInsts);
        EXPECT_GE(s.l1iMissRate, 0.0);
        EXPECT_LE(s.l1iMissRate, 1.0);
        EXPECT_GE(s.l2MissRate, 0.0);
        EXPECT_LE(s.l2MissRate, 1.0);
    }
    EXPECT_EQ(insts, m.instsRetired);
    EXPECT_EQ(overhead, m.overheadInsts);
    EXPECT_EQ(idle, m.idleCycles);
    EXPECT_EQ(migrations, m.migrations);
    EXPECT_EQ(irqs, m.irqCount);
}

TEST(EpochTraceMachine, SchedTaskDecisionReportPopulated)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    ASSERT_FALSE(r.metrics.epochSamples.empty());
    const SchedEpochReport &sched =
        r.metrics.epochSamples.back().sched;
    EXPECT_GT(sched.allocTypes, 0u);
    EXPECT_GT(sched.allocCores, 0u);
    EXPECT_GE(sched.cosineSimilarity, -1.0);
    EXPECT_LE(sched.cosineSimilarity, 1.0);
    // Apache touches plenty of pages: the aggregated heatmaps must
    // have bits set by the end of the window.
    EXPECT_GT(sched.heatmapSetBits, 0u);
    // No exact page tracking, no ranking tau.
    EXPECT_EQ(sched.rankingTau, 0.0);
}

TEST(EpochTraceMachine, RankingTauMatchesHandDrivenReference)
{
    for (unsigned bits : {128u, 512u}) {
        SCOPED_TRACE(bits);
        ExperimentConfig cfg = ExperimentConfig::standard("Find", 1.0)
                                   .withCores(8)
                                   .withHeatmapBits(bits)
                                   .withEpochs(4, 1);
        const double reference = handDrivenTau(cfg);
        EXPECT_GT(reference, 0.0);

        cfg.machine.trackExactPages = true;
        cfg.machine.trace = true;
        const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
        ASSERT_EQ(r.metrics.epochSamples.size(), 1u);
        EXPECT_EQ(r.metrics.epochSamples.back().sched.rankingTau,
                  reference);
    }
}

TEST(EpochTraceMachine, DisabledByDefault)
{
    ExperimentConfig cfg = tracedConfig();
    cfg.machine.trace = false;
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    EXPECT_TRUE(r.metrics.epochSamples.empty());
}

TEST(EpochTraceMachine, TracingIsPureObservation)
{
    ExperimentConfig plain = tracedConfig();
    plain.machine.trace = false;
    const RunResult traced =
        runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const RunResult untraced = runOnce(plain, TechniqueSpec{"SchedTask"});
    EXPECT_EQ(traced.metrics.instsRetired,
              untraced.metrics.instsRetired);
    EXPECT_EQ(traced.metrics.appEvents, untraced.metrics.appEvents);
    EXPECT_EQ(traced.metrics.migrations,
              untraced.metrics.migrations);
    EXPECT_EQ(traced.metrics.idleCycles,
              untraced.metrics.idleCycles);
    EXPECT_EQ(traced.iHitAll, untraced.iHitAll);
}

TEST(EpochTraceMachine, EveryTechniqueReports)
{
    std::vector<TechniqueSpec> techniques = comparedTechniques();
    techniques.push_back(TechniqueSpec{"Linux"});
    for (const TechniqueSpec &t : techniques) {
        SCOPED_TRACE(t.name);
        ExperimentConfig cfg = tracedConfig("Find");
        cfg.measureEpochs = 2;
        const RunResult r = runOnce(cfg, t);
        ASSERT_EQ(r.metrics.epochSamples.size(), 2u);
        EXPECT_EQ(r.metrics.epochSamples[0].cores.size(),
                  r.numCores);
    }
}

TEST(EpochTraceExport, JsonlOneValidLinePerEpoch)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const std::string jsonl =
        epochTraceJsonl(r.metrics.epochSamples);

    std::string error;
    EXPECT_TRUE(validateJsonLines(jsonl, &error)) << error;
    EXPECT_EQ(countOccurrences(jsonl, "\n"),
              r.metrics.epochSamples.size());
    EXPECT_EQ(countOccurrences(jsonl, "\"sched\""),
              r.metrics.epochSamples.size());
    EXPECT_EQ(countOccurrences(jsonl, "\"cosineSimilarity\""),
              r.metrics.epochSamples.size());
    EXPECT_EQ(countOccurrences(jsonl, "\"rankingTau\""),
              r.metrics.epochSamples.size());
    // Each line also round-trips as a standalone JSON document.
    const std::string first = jsonl.substr(0, jsonl.find('\n'));
    EXPECT_TRUE(validateJson(first, &error)) << error;
}

TEST(EpochTraceExport, ChromeTraceWellFormedWithPerCoreEvents)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const std::string trace = chromeTraceJson(
        r.metrics.epochSamples, r.metrics.sfEvents, r.freqGhz);

    std::string error;
    EXPECT_TRUE(validateJson(trace, &error)) << error;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // One duration event per core per epoch, one instant event per
    // SuperFunction event, plus one thread-name metadata event per
    // core.
    EXPECT_EQ(countOccurrences(trace, "\"ph\":\"X\""),
              r.metrics.epochSamples.size() * r.numCores);
    EXPECT_FALSE(r.metrics.sfEvents.empty());
    EXPECT_EQ(countOccurrences(trace, "\"ph\":\"i\""),
              r.metrics.sfEvents.size());
    EXPECT_EQ(countOccurrences(trace, "\"thread_name\""),
              static_cast<std::size_t>(r.numCores));
    EXPECT_NE(trace.find("\"cosineSimilarity\""), std::string::npos);
}

TEST(EpochTraceExport, EmptySamplesStillValidDocuments)
{
    const std::vector<EpochSample> none;
    std::string error;
    EXPECT_TRUE(validateJson(chromeTraceJson(none, {}, 2.0), &error))
        << error;
    EXPECT_TRUE(validateJsonLines(epochTraceJsonl(none), &error))
        << error;
}

TEST(JsonValidator, AcceptsAndRejects)
{
    std::string error;
    EXPECT_TRUE(validateJson("{\"a\":[1,2.5e-3,true,null,\"x\\n\"]}",
                             &error))
        << error;
    EXPECT_TRUE(validateJson("  [ ]  ", &error)) << error;
    EXPECT_FALSE(validateJson("{\"a\":}", &error));
    EXPECT_FALSE(validateJson("{} trailing", &error));
    EXPECT_FALSE(validateJson("{\"a\":01}", &error));
    EXPECT_FALSE(validateJson("\"unterminated", &error));
    EXPECT_FALSE(validateJson("", &error));
    EXPECT_TRUE(validateJsonLines("{}\n[1]\n\n{\"k\":0}\n", &error))
        << error;
    EXPECT_FALSE(validateJsonLines("{}\nnot json\n", &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
}
