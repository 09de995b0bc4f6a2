/**
 * @file
 * TMigrate placement and work-stealing algorithms (Section 5.3,
 * Algorithm 1).
 *
 * Placement: a new SuperFunction goes to the allocated core with
 * the least waiting time (the sum of the average execution times of
 * the SuperFunctions in its runnable queue). Absent an allocation,
 * it runs on the local core.
 *
 * Waiting time is not recomputed from the queues: like a hardware
 * per-core counter, the owning scheduler keeps it as a running
 * backlog (QueueScheduler::backlogs()), credited with a
 * SuperFunction's waitingCost() when it is queued and debited by
 * the same amount when it leaves the queue by any path (dispatch,
 * steal, drain). The invariant is backlog[c] == sum of
 * waitingCost() over queue c. A SuperFunction's cost depends only
 * on TAlloc's system-wide stats table, which changes only when
 * TAlloc runs at an epoch boundary, so the scheduler rebuilds the
 * backlogs from the queues exactly there and nowhere else; between
 * two TAlloc runs every debit matches its credit.
 *
 * Stealing, tried in order by an idle core:
 *  1. Steal same work only — take a SuperFunction whose type is
 *     allocated to the local core from the core with the maximum
 *     waiting time (no extra i-cache pollution).
 *  2. Steal similar work also — walk the merged overlap lists of
 *     the local types in decreasing Page-overlap order; on finding
 *     a remote queue holding SuperFunctions of that type, steal
 *     half of them (amortizing the cold i-cache over several
 *     executions).
 * An alternate strategy, steal-from-busiest, ignores types entirely
 * (evaluated as the "modest benefits" variant in Section 6.4).
 */

#ifndef SCHEDTASK_CORE_TMIGRATE_HH
#define SCHEDTASK_CORE_TMIGRATE_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "core/alloc_table.hh"
#include "core/overlap_table.hh"
#include "core/super_function.hh"

namespace schedtask
{

/** Work-stealing strategy (Figure 9 ablation). */
enum class StealPolicy : std::uint8_t
{
    None,            ///< idle cores stay idle
    SameOnly,        ///< level 1 only
    SameAndSimilar,  ///< level 1 then level 2 (the default)
    BusiestFirst,    ///< type-agnostic: raid the longest queue
};

/** Human-readable strategy name. */
const char *stealPolicyName(StealPolicy policy);

/**
 * Waiting-time cost of a queued SuperFunction whose type has no
 * recorded average execution time yet: nominal, so that a queue of
 * never-seen types still looks non-empty.
 */
inline constexpr Cycles unseenTypeCost = 1000;

/** Waiting-time contribution of one queued SuperFunction. */
constexpr Cycles
waitingCost(Cycles avg_exec_time)
{
    return avg_exec_time != 0 ? avg_exec_time : unseenTypeCost;
}

/** View of all run queues plus their waiting times. */
struct TMigrateView
{
    /** Per-core runnable queues (owned by the scheduler). */
    std::vector<std::deque<SuperFunction *>> *queues = nullptr;

    /** Per-core waiting time, kept by the scheduler (see above). */
    const std::vector<Cycles> *backlog = nullptr;

    /** Queued instances of a type, across all cores (fast probe). */
    std::function<std::size_t(SfType)> queuedCount;

    /**
     * Bookkeeping callback invoked for each stolen SuperFunction,
     * right after it left its queue; the owner debits the backlog.
     */
    std::function<void(SuperFunction *)> onStolen;

    /** Waiting time of a core's queue. */
    Cycles
    waitingTime(CoreId core) const
    {
        return (*backlog)[core];
    }
};

/**
 * Pick the least-waiting-time core among an allocation's candidates
 * (Algorithm 1, startSuperFunction).
 */
CoreId selectLeastWaitingCore(const TMigrateView &view,
                              const std::vector<CoreId> &candidates);

/**
 * Level-1 stealing: remove and return one SuperFunction whose type
 * is allocated to `thief`, taken from the queue with the maximum
 * waiting time. Returns nullptr when nothing qualifies.
 */
SuperFunction *stealSameWork(const TMigrateView &view,
                             const AllocTable &alloc, CoreId thief);

/**
 * Level-2 stealing: walk the merged overlap list of the thief's
 * types; steal half of the matching SuperFunctions (at least one)
 * from the first remote queue that holds any. Empty when nothing
 * qualifies.
 */
std::vector<SuperFunction *> stealSimilarWork(const TMigrateView &view,
                                              const AllocTable &alloc,
                                              const OverlapTable &overlap,
                                              CoreId thief);

/**
 * Type-agnostic alternative: steal the tail half of the queue with
 * the maximum waiting time.
 */
std::vector<SuperFunction *> stealFromBusiest(const TMigrateView &view,
                                              CoreId thief);

} // namespace schedtask

#endif // SCHEDTASK_CORE_TMIGRATE_HH
