/**
 * @file
 * Experiment harness: builds machines, runs warmup + measurement,
 * and computes baseline-relative deltas the way the paper reports
 * them (change in instruction throughput / application performance
 * relative to the Linux baseline with the same workload and cache
 * configuration).
 */

#ifndef SCHEDTASK_HARNESS_EXPERIMENT_HH
#define SCHEDTASK_HARNESS_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/schedtask_sched.hh"
#include "mem/hierarchy.hh"
#include "sched/registry.hh"
#include "sched/scheduler.hh"
#include "sim/machine.hh"
#include "sim/metrics.hh"
#include "workload/workload.hh"

namespace schedtask
{

/**
 * The techniques compared against the baseline (Section 6.1,
 * Table 3): the registry's paper entries minus those flagged
 * isBaseline, in paper order (so the baseline's exclusion is an
 * explicit property, not an ordering assumption).
 */
const std::vector<TechniqueSpec> &comparedTechniques();

/** Everything one simulation run needs. */
struct ExperimentConfig
{
    /** Baseline core count (techniques may use more). */
    unsigned baselineCores = 32;

    /** Cache hierarchy, built on the technique's core count. */
    HierarchyParams hierarchy = HierarchyParams::paperDefault();

    /** Machine parameters (numCores filled in per technique). */
    MachineParams machine;

    /** Workload composition. */
    std::vector<WorkloadPart> parts;

    /** Warmup/measurement lengths, in epochs. TAlloc needs a few
     *  epochs to converge from the Linux-like bring-up state. */
    unsigned warmupEpochs = 4;
    unsigned measureEpochs = 6;

    /** SchedTask variant parameters (ablations). */
    SchedTaskParams schedTask;

    /** Appendix add-ons. */
    bool useCgpPrefetcher = false;
    bool useTraceCache = false;

    /** Field-wise: a sweep cell is keyed by its config. */
    auto operator<=>(const ExperimentConfig &) const = default;

    /**
     * Standard configuration: one benchmark at the given scale
     * (the paper's main results use 2X), paper Table 2 hierarchy.
     */
    static ExperimentConfig standard(const std::string &benchmark,
                                     double scale = 2.0);

    /** Standard configuration for a multi-programmed bag. */
    static ExperimentConfig standardBag(const std::string &bag);

    /**
     * Why `spec` cannot run on this configuration, or nullopt when
     * it can. This is the one place a run is checked before it
     * starts: an unknown benchmark, a cache level the model cannot
     * build (HierarchyParams::geometryError()), a demand-smoothing
     * weight outside [0, 1], an unregistered technique, a core
     * count (after coresRequired() and configureMachine()) the
     * full-map coherence directory cannot track, a heatmap width
     * PageHeatmap does not accept, and a scale at which a part has
     * no threads or more than Workload::maxPartThreads. Messages
     * name the offending value (or its `hierarchy.<level>` or
     * `schedTask.<field>`), never a flag: every caller sets it its
     * own way.
     */
    std::optional<std::string> validate(const TechniqueSpec &spec) const;

    /**
     * Fluent modifiers, so call sites can derive a variant in one
     * expression — `ExperimentConfig::standard("Apache")
     * .withCores(16).withSteal(StealPolicy::None)` — instead of
     * mutating fields ad hoc. Aggregate initialization and direct
     * field access keep working.
     */
    ExperimentConfig &
    withCores(unsigned cores)
    {
        baselineCores = cores;
        return *this;
    }

    ExperimentConfig &
    withEpochs(unsigned warmup, unsigned measure)
    {
        warmupEpochs = warmup;
        measureEpochs = measure;
        return *this;
    }

    ExperimentConfig &
    withEpochCycles(Cycles cycles)
    {
        machine.epochCycles = cycles;
        return *this;
    }

    ExperimentConfig &
    withHeatmapBits(unsigned bits)
    {
        machine.heatmapBits = bits;
        return *this;
    }

    ExperimentConfig &
    withSeed(std::uint64_t seed)
    {
        machine.seed = seed;
        return *this;
    }

    ExperimentConfig &
    withHierarchy(const HierarchyParams &params)
    {
        hierarchy = params;
        return *this;
    }

    ExperimentConfig &
    withL1ISize(std::uint64_t bytes)
    {
        hierarchy.l1i.sizeBytes = bytes;
        return *this;
    }

    ExperimentConfig &
    withSteal(StealPolicy policy)
    {
        schedTask.stealPolicy = policy;
        return *this;
    }

    ExperimentConfig &
    withRouteInterrupts(bool route)
    {
        schedTask.routeInterrupts = route;
        return *this;
    }

    ExperimentConfig &
    withDemandSmoothing(double weight)
    {
        schedTask.demandSmoothing = weight;
        return *this;
    }

    ExperimentConfig &
    withExactOverlap(bool exact = true)
    {
        schedTask.useExactOverlap = exact;
        return *this;
    }

    ExperimentConfig &
    withCgpPrefetcher(bool enabled = true)
    {
        useCgpPrefetcher = enabled;
        return *this;
    }

    ExperimentConfig &
    withTraceCache(bool enabled = true)
    {
        useTraceCache = enabled;
        return *this;
    }
};

/** Result of one run, with hierarchy-derived rates attached. */
struct RunResult
{
    SimMetrics metrics;
    unsigned numCores = 0;
    unsigned numThreads = 0;
    double freqGhz = 2.0;

    double iHitApp = 1.0;
    double iHitOs = 1.0;
    double iHitAll = 1.0;
    double dHitApp = 1.0;
    double dHitOs = 1.0;
    double itlbHit = 1.0;
    double dtlbHit = 1.0;

    double instThroughput() const
    {
        return metrics.instThroughput(freqGhz);
    }

    double appPerformance() const
    {
        return metrics.appEventsPerSecond(freqGhz);
    }

    double idlePercent() const
    {
        return metrics.idleFraction(numCores) * 100.0;
    }

    /** Migrations normalized per billion retired instructions. */
    double migrationsPerBillionInsts() const;
};

/**
 * Run one technique on one configuration. A thin wrapper over the
 * sweep API (harness/sweep.hh) that executes a single-run Sweep on
 * the calling thread; the master seed is taken verbatim from
 * config.machine.seed.
 */
RunResult runOnce(const ExperimentConfig &config,
                  const TechniqueSpec &spec);

/** Run with a caller-provided scheduler (custom schedulers). */
RunResult runWithScheduler(const ExperimentConfig &config,
                           Scheduler &scheduler);

/** Percent change helper: 100 * (v - base) / base. */
double percentChange(double base, double value);

/** Percentage-point change between two rates in [0,1]. */
double pointChange(double base_rate, double rate);

/** A baseline + technique pair on identical configuration. */
struct Comparison
{
    RunResult baseline;
    RunResult technique;

    double throughputChange() const
    {
        return percentChange(baseline.instThroughput(),
                             technique.instThroughput());
    }
};

/**
 * Run baseline and technique on the same configuration — a thin
 * wrapper over the sweep API that runs the pair on up to two worker
 * threads (SCHEDTASK_JOBS permitting), with identical workload
 * streams for both runs.
 */
Comparison compare(const ExperimentConfig &config,
                   const TechniqueSpec &spec);

} // namespace schedtask

#endif // SCHEDTASK_HARNESS_EXPERIMENT_HH
