/**
 * @file
 * Metrics collected during a measured simulation window.
 *
 * These are exactly the quantities the paper's figures report:
 * instruction throughput, application events per second, core
 * idleness, cache hit rates (read from the MemHierarchy), thread
 * migrations, interrupt latency and per-thread instruction counts
 * (Jain fairness). With tracing on they also carry the run's epoch
 * telemetry (stats/epoch_trace.hh).
 */

#ifndef SCHEDTASK_SIM_METRICS_HH
#define SCHEDTASK_SIM_METRICS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/sf_type.hh"
#include "stats/epoch_trace.hh"

namespace schedtask
{

/** Raw counters accumulated while the measurement window is open. */
struct SimMetrics
{
    /** Measured window length in cycles. */
    Cycles cycles = 0;

    /** Retired instructions including scheduler routines. */
    std::uint64_t instsRetired = 0;

    /** Retired instructions per SuperFunction category (scheduler
     *  routines excluded, as in Figure 4). */
    std::uint64_t instsByCategory[numSfCategories] = {};

    /** Scheduler-routine instructions. */
    std::uint64_t overheadInsts = 0;

    /** Application-specific events completed. */
    std::uint64_t appEvents = 0;

    /** Events per workload part. */
    std::vector<std::uint64_t> appEventsByPart;

    /** Instructions per workload part (weighted-throughput bags). */
    std::vector<std::uint64_t> instsByPart;

    /** Idle core-cycles summed over all cores. */
    std::uint64_t idleCycles = 0;

    /** Idle core-cycles per core (utilization visualization). */
    std::vector<std::uint64_t> perCoreIdleCycles;

    /** Inter-core thread migrations. */
    std::uint64_t migrations = 0;

    /** Interrupts handled and their summed dispatch latency. */
    std::uint64_t irqCount = 0;
    Cycles irqLatencySum = 0;

    /** Per-thread retired instructions (fairness index). */
    std::vector<std::uint64_t> perThreadInsts;

    /** Epoch telemetry (filled when MachineParams.trace is set). */
    std::vector<EpochSample> epochSamples;

    /** The most recent SuperFunction lifecycle events of the window
     *  (filled when MachineParams.trace is set). */
    std::vector<SfEvent> sfEvents;

    // ---- Derived quantities ---------------------------------------

    /** Instructions per core-cycle over the window. */
    double ipc(unsigned num_cores) const;

    /** Fraction of core-cycles spent idle, in [0,1]. */
    double idleFraction(unsigned num_cores) const;

    /** Instruction throughput in instructions per second. */
    double instThroughput(double freq_ghz) const;

    /** Application events per second. */
    double appEventsPerSecond(double freq_ghz) const;

    /** Mean interrupt dispatch latency in cycles. */
    double meanIrqLatency() const;

    /** Fraction of (non-overhead) instructions in a category. */
    double categoryFraction(SfCategory cat) const;
};

} // namespace schedtask

#endif // SCHEDTASK_SIM_METRICS_HH
