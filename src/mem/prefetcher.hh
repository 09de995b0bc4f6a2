/**
 * @file
 * The instruction prefetcher of the appendix sensitivity study.
 *
 * The appendix (Fig. 2) evaluates the core-specialization techniques
 * on a baseline equipped with the hardware-only mode of the Call
 * Graph Prefetcher (CGP, Annavaram et al.), which reduces i-cache
 * misses by 20-30%. CallGraphPrefetcher learns the entry lines
 * missed at the start of each task (the call-graph successor set)
 * and prefetches them when the task is entered again.
 */

#ifndef SCHEDTASK_MEM_PREFETCHER_HH
#define SCHEDTASK_MEM_PREFETCHER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/** Interface through which a prefetcher installs lines. */
class PrefetchSink
{
  public:
    virtual ~PrefetchSink() = default;

    /** Install an instruction line into the core's i-cache path. */
    virtual void installInstLine(CoreId core, Addr line_addr) = 0;
};

/**
 * Call-graph prefetcher (CGP-like, hardware-only mode).
 *
 * Records the first `recordLimit` distinct missing lines of each
 * task start, keyed by the task token; prefetches that recorded set
 * when the same task starts again, and falls back to next-line
 * prefetching (`nextLineDegree` lines) on misses.
 */
class CallGraphPrefetcher
{
  public:
    /** Fetches after a task start whose misses are learned (so
     *  also the most lines learned per task). */
    static constexpr unsigned recordLimit = 4;
    /** Lines of the next-line fallback. */
    static constexpr unsigned nextLineDegree = 1;

    /** Keeps one recording state per core of the hierarchy. */
    explicit CallGraphPrefetcher(unsigned num_cores);

    /** Called on every demand i-fetch, after the lookup. */
    void onFetch(CoreId core, Addr line_addr, bool hit,
                 PrefetchSink &sink);

    /**
     * Called when a task (SuperFunction) starts on a core.
     *
     * @param task_token an opaque identity of the task's code (the
     *                   superFuncType in this project).
     */
    void onTaskStart(CoreId core, std::uint64_t task_token,
                     PrefetchSink &sink);

    /** Number of task entries learned (for tests). */
    std::size_t learnedEntries() const { return table_.size(); }

    /** Number of prefetches issued so far. */
    std::uint64_t issued() const { return issued_; }

    /** Reset the statistics, keeping learned state. */
    void resetStats() { issued_ = 0; }

  private:
    struct CoreState
    {
        std::uint64_t token = 0;
        unsigned recorded = 0;
        bool recording = false;
        /** Next-line timeliness toggle (half the prefetches arrive
         *  too late to save the miss, as on real frontends). */
        bool timely = false;
    };

    std::vector<CoreState> core_state_;
    std::uint64_t issued_ = 0;
    std::unordered_map<std::uint64_t, std::vector<Addr>> table_;
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_PREFETCHER_HH
