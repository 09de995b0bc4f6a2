/**
 * @file
 * Workload assembly: benchmarks (possibly bagged) at a scale factor.
 *
 * Section 6.1 evaluates the doubled (2X) ensemble of each benchmark:
 * single-threaded applications spawn twice the processes, and
 * multi-threaded applications spawn twice the threads. Section 6.3
 * sweeps 1X..8X. The appendix additionally evaluates six
 * multi-programmed bags (MPW-A..MPW-F) mixing benchmarks at reduced
 * scales.
 */

#ifndef SCHEDTASK_WORKLOAD_WORKLOAD_HH
#define SCHEDTASK_WORKLOAD_WORKLOAD_HH

#include <string>
#include <vector>

#include "workload/benchmarks.hh"
#include "workload/script.hh"

namespace schedtask
{

/** One benchmark at a scale within a workload. */
struct WorkloadPart
{
    std::string benchmark;
    double scale = 1.0;

    auto operator<=>(const WorkloadPart &) const = default;
};

/** Everything a simulated thread needs to start. */
struct ThreadSpec
{
    const BenchmarkProfile *profile = nullptr;
    /** Which WorkloadPart this thread belongs to. */
    unsigned partIndex = 0;
    /** Rank of this thread within its part (0-based). */
    unsigned indexInPart = 0;
    /** Application instance-group identity (process group). */
    std::uint64_t appUid = 0;
    /** True when this process has exactly one thread (FlexSC's
     *  pathological case). */
    bool singleThreadedApp = false;
    Addr privateDataBase = 0;
    std::uint64_t privateDataBytes = 0;
    Addr sharedDataBase = 0;
    std::uint64_t sharedDataBytes = 0;
};

/** An instantiated ambient interrupt stream. */
struct AmbientIrqInstance
{
    AmbientIrqSpec spec;
    unsigned partIndex = 0;
};

/**
 * A fully instantiated workload: thread specs plus ambient
 * interrupt streams, with data regions allocated in the suite's
 * region map.
 */
class Workload
{
  public:
    /**
     * Build a workload.
     *
     * @param suite      benchmark suite (region map is extended)
     * @param parts      constituent benchmarks and their scales
     * @param num_cores  baseline core count (single-threaded
     *                   benchmarks spawn scale * num_cores processes)
     */
    static Workload build(BenchmarkSuite &suite,
                          const std::vector<WorkloadPart> &parts,
                          unsigned num_cores);

    /** Convenience: one benchmark at the given scale. */
    static Workload buildSingle(BenchmarkSuite &suite,
                                const std::string &benchmark,
                                double scale, unsigned num_cores);

    /**
     * Most threads one part may spawn: ten times the largest part
     * the paper runs (FileSrv at 16X, 6,400 threads). A thread costs
     * under 1 KB of host memory, so the cap keeps a mistyped scale
     * to tens of MB instead of letting it exhaust the host.
     */
    static constexpr unsigned maxPartThreads = 65536;

    /**
     * Threads (processes, for one-process-per-core benchmarks) a
     * part spawns: scale x threadsAt1X, or scale x num_cores, rounded
     * to nearest. Saturates at maxPartThreads + 1 (also for NaN), so
     * callers can reject oversized parts without overflow; 0 means
     * the part rounds to no threads at all.
     */
    static unsigned partThreads(const BenchmarkProfile &profile,
                                double scale, unsigned num_cores);

    /** Appendix Table 1 bag names: MPW-A .. MPW-F. */
    static const std::vector<std::string> &bagNames();

    /** Constituent parts of a named bag; fatal for unknown names. */
    static std::vector<WorkloadPart> bagParts(const std::string &name);

    const std::vector<ThreadSpec> &threads() const { return threads_; }

    const std::vector<AmbientIrqInstance> &ambient() const
    {
        return ambient_;
    }

    /** Number of constituent parts. */
    unsigned numParts() const { return num_parts_; }

  private:
    std::vector<ThreadSpec> threads_;
    std::vector<AmbientIrqInstance> ambient_;
    unsigned num_parts_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_WORKLOAD_WORKLOAD_HH
