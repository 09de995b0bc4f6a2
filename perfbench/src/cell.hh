/**
 * @file
 * One simulation run ("cell") of a benchmark workload, executed
 * through the same public calls runWithScheduler() makes, with host
 * spans taken between them.
 */

#ifndef PERFBENCH_CELL_HH
#define PERFBENCH_CELL_HH

#include <cstdint>
#include <string>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "timed_scheduler.hh"

namespace perfbench
{

using namespace schedtask;

/** Seconds on the monotonic wall clock. */
double wallSeconds();

/** Seconds of CPU time consumed by the calling thread. */
double threadCpuSeconds();

/**
 * Host-speed probe: a fixed random pointer chase over 8 MiB, run on
 * `jobs` threads at once. Returns the mean per-thread CPU seconds.
 * The simulator's host cost is dominated by cache-missing loads, so
 * contention from other tenants of the machine slows both alike; the
 * probe's own code never changes, so it does not move when the
 * simulator gets faster.
 */
double hostChaseSeconds(unsigned jobs);

/** hostChaseSeconds() on an idle reference host (4 vCPUs, AVX-512
 *  Xeon, KVM); metrics are scaled to this speed. */
inline constexpr double referenceChaseSeconds = 0.5;

/** How a cell is executed. */
struct CellMode
{
    /** Wrap the scheduler in TimedScheduler (per-hook spans). */
    bool timeHooks = false;
    /** Run with MachineParams.trace (EpochTrace telemetry) on. */
    bool epochTrace = false;
};

/** Exact memory-hierarchy counts of a measured window. */
struct MemCounts
{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iHits = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t itlbAccesses = 0;
    std::uint64_t itlbHits = 0;
    std::uint64_t dtlbAccesses = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t coherenceInvals = 0;
    std::uint64_t remoteFills = 0;
    std::uint64_t fetchStallCycles = 0;
    std::uint64_t dataStallCycles = 0;
    std::uint64_t prefetches = 0;

    MemCounts &operator+=(const MemCounts &other);
};

/** Host spans of one cell, in seconds. */
struct CellTimes
{
    double buildS = 0.0;     ///< BenchmarkSuite + Workload::build
    double constructS = 0.0; ///< scheduler, configureMachine, Machine
    double warmupS = 0.0;    ///< run(warmup)
    double measureS = 0.0;   ///< resetStats + run(measure)
    double runS = 0.0;       ///< the whole cell, wall clock
    double setupCpuS = 0.0;  ///< thread CPU before the window opens
    double measureCpuS = 0.0; ///< thread CPU of the measured window
};

/** Everything one executed cell reports. */
struct CellResult
{
    RunResult run;
    MemCounts mem;
    CellTimes times;
    /** Digest of every SimMetrics scalar and every MemCounts field. */
    std::uint64_t digest = 0;
    /** Non-empty when the cell threw. */
    std::string error;

    bool schedTask = false;
    /** Measured-window hook totals (only with CellMode::timeHooks). */
    HookTotals hooks;
    CoreCounters core;
};

/** Execute one request of a sweep (seed derived via runSeed()). */
CellResult runCell(const RunRequest &request, CellMode mode);

/** Digest of a RunResult: SimMetrics scalars plus the derived rates,
 *  everything runWithScheduler() returns. */
std::uint64_t resultDigest(const RunResult &result);

/** Digest of the full cell output (result plus MemCounts). */
std::uint64_t cellDigest(const RunResult &result, const MemCounts &mem);

} // namespace perfbench

#endif // PERFBENCH_CELL_HH
