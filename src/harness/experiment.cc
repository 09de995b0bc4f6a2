#include "harness/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "core/page_heatmap.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "mem/directory.hh"
#include "sched/registry.hh"
#include "workload/benchmarks.hh"

namespace schedtask
{

const std::vector<TechniqueSpec> &
comparedTechniques()
{
    // Figure 7's five comparison columns; the registry keeps its
    // paper entries in paper order.
    static const std::vector<TechniqueSpec> techniques = [] {
        std::vector<TechniqueSpec> out;
        for (const SchedulerInfo *info :
             SchedulerRegistry::instance().paperEntries()) {
            if (!info->isBaseline)
                out.push_back(TechniqueSpec{info->name});
        }
        return out;
    }();
    return techniques;
}

ExperimentConfig
ExperimentConfig::standard(const std::string &benchmark, double scale)
{
    ExperimentConfig cfg;
    cfg.parts = {{benchmark, scale}};
    return cfg;
}

ExperimentConfig
ExperimentConfig::standardBag(const std::string &bag)
{
    ExperimentConfig cfg;
    cfg.parts = Workload::bagParts(bag);
    return cfg;
}

std::optional<std::string>
ExperimentConfig::validate(const TechniqueSpec &spec) const
{
    if (parts.empty())
        return "the workload has no benchmark parts";
    const std::vector<std::string> &known =
        BenchmarkSuite::benchmarkNames();
    for (const WorkloadPart &part : parts) {
        if (std::find(known.begin(), known.end(), part.benchmark)
            == known.end()) {
            return "unknown benchmark '" + part.benchmark + "' (known: "
                + joinNames(known) + ")";
        }
    }
    if (std::optional<std::string> geometry = hierarchy.geometryError())
        return geometry;
    // Negated so that NaN fails too.
    if (!(schedTask.demandSmoothing >= 0.0
          && schedTask.demandSmoothing <= 1.0))
        return "schedTask.demandSmoothing must be in [0, 1]";

    MachineParams mp = machine;
    try {
        const std::unique_ptr<Scheduler> sched =
            SchedulerRegistry::instance().make(spec, schedTask);
        mp.numCores = sched->coresRequired(baselineCores);
        // Machine-shape constraints (FlexSC's core split) are
        // checked here.
        sched->configureMachine(mp);
    } catch (const TechniqueError &e) {
        return std::string(e.what());
    }

    char buf[256];
    if (mp.numCores < 1 || mp.numCores > CoherenceDirectory::maxCores) {
        std::snprintf(buf, sizeof(buf),
                      "%s needs %u cores for --cores %u; the simulator "
                      "supports 1..%u",
                      spec.name.c_str(), mp.numCores, baselineCores,
                      CoherenceDirectory::maxCores);
        return std::string(buf);
    }
    if (!PageHeatmap::validWidth(mp.heatmapBits)) {
        std::snprintf(buf, sizeof(buf),
                      "invalid value '%u' for --heatmap-bits (expected a "
                      "power of two in [64, 65536])",
                      mp.heatmapBits);
        return std::string(buf);
    }
    // Profiles are immutable, so one shared suite serves every call.
    static const BenchmarkSuite suite;
    for (const WorkloadPart &part : parts) {
        const unsigned threads = Workload::partThreads(
            suite.byName(part.benchmark), part.scale, baselineCores);
        if (threads == 0 || threads > Workload::maxPartThreads) {
            std::snprintf(buf, sizeof(buf),
                          "invalid value '%g' for --scale: %s would run "
                          "%s threads (the simulator supports 1..%u per "
                          "benchmark)",
                          part.scale, part.benchmark.c_str(),
                          threads == 0 ? "0" : "too many",
                          Workload::maxPartThreads);
            return std::string(buf);
        }
    }
    return std::nullopt;
}

double
RunResult::migrationsPerBillionInsts() const
{
    if (metrics.instsRetired == 0)
        return 0.0;
    return static_cast<double>(metrics.migrations) * 1e9
        / static_cast<double>(metrics.instsRetired);
}

RunResult
runWithScheduler(const ExperimentConfig &config, Scheduler &scheduler)
{
    // A fresh suite per run keeps the region layout and all RNG
    // streams identical across techniques.
    BenchmarkSuite suite;
    Workload workload =
        Workload::build(suite, config.parts, config.baselineCores);

    MachineParams mp = config.machine;
    mp.numCores = scheduler.coresRequired(config.baselineCores);
    // Machine-shape checks (FlexSC's core split) apply here.
    scheduler.configureMachine(mp);

    Machine machine(mp, config.hierarchy, suite, workload, scheduler);

    if (config.useCgpPrefetcher) {
        machine.hierarchy().setPrefetcher(
            std::make_unique<CallGraphPrefetcher>(mp.numCores));
    }
    if (config.useTraceCache)
        machine.hierarchy().enableTraceCaches(TraceCacheParams{});

    machine.run(static_cast<Cycles>(config.warmupEpochs)
                * mp.epochCycles);
    machine.resetStats();
    machine.run(static_cast<Cycles>(config.measureEpochs)
                * mp.epochCycles);

    RunResult result;
    result.metrics = machine.metricsSnapshot();
    result.numCores = mp.numCores;
    result.numThreads =
        static_cast<unsigned>(machine.threads().size());
    result.freqGhz = mp.coreFrequencyGHz;
    const MemHierarchy &hier = machine.hierarchy();
    result.iHitApp = hier.iCounts(ExecClass::App).hitRate();
    result.iHitOs = hier.iCounts(ExecClass::Os).hitRate();
    result.iHitAll = hier.iCountsTotal().hitRate();
    result.dHitApp = hier.dCounts(ExecClass::App).hitRate();
    result.dHitOs = hier.dCounts(ExecClass::Os).hitRate();
    result.itlbHit = hier.itlbHitRate();
    result.dtlbHit = hier.dtlbHitRate();
    return result;
}

RunResult
runOnce(const ExperimentConfig &config, const TechniqueSpec &spec)
{
    Sweep sweep;
    sweep.deriveSeeds(false);
    sweep.add("run", spec.str(), config, spec);
    SweepOptions options;
    options.jobs = 1;
    options.progress = false;
    return SweepRunner(options).run(sweep).at("run", spec.str());
}

double
percentChange(double base, double value)
{
    if (base == 0.0)
        return 0.0;
    return 100.0 * (value - base) / base;
}

double
pointChange(double base_rate, double rate)
{
    return (rate - base_rate) * 100.0;
}

Comparison
compare(const ExperimentConfig &config, const TechniqueSpec &spec)
{
    Sweep sweep;
    sweep.deriveSeeds(false);
    sweep.addComparison("run", spec.str(), config, spec);
    SweepOptions options;
    options.progress = false;
    const SweepResults results = SweepRunner(options).run(sweep);

    Comparison cmp;
    cmp.baseline = results.at(baselineLabelFor("run", config));
    cmp.technique = results.at("run", spec.str());
    return cmp;
}

} // namespace schedtask
