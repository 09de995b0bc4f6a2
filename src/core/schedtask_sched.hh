/**
 * @file
 * The SchedTask scheduler: TAlloc + TMigrate glued onto the
 * simulator's scheduler interface (Section 5).
 *
 * Per-core stats tables are filled by the stopStatsCollection hook
 * (onSliceEnd). At every epoch boundary TAlloc aggregates them,
 * rebuilds the allocation/overlap tables when the workload mix
 * shifted, programs the interrupt controller, and re-places queued
 * SuperFunctions under the new allocation.
 *
 * TMigrate (Section 5.3, Algorithm 1) places a new SuperFunction on
 * the allocated core with the least waiting time (the sum of the
 * average execution times of the SuperFunctions in its runnable
 * queue); absent an allocation, it runs on the local core. Waiting
 * time is not recomputed from the queues: like a hardware per-core
 * counter, QueueScheduler keeps it as a running backlog
 * (backlogs()), credited with a SuperFunction's waitingCost() when
 * it is queued and debited by the same amount when it leaves the
 * queue. A SuperFunction's cost depends only on TAlloc's
 * system-wide stats table, which changes only when TAlloc runs at
 * an epoch boundary, so the backlogs are rebuilt from the queues
 * exactly there and nowhere else.
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
 * (evaluated as the "modest benefits" variant in Section 6.4). The
 * steals only read the queues; every removal goes through
 * QueueScheduler's takeBack/takeMatching.
 */

#ifndef SCHEDTASK_CORE_SCHEDTASK_SCHED_HH
#define SCHEDTASK_CORE_SCHEDTASK_SCHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/alloc_table.hh"
#include "core/overlap_table.hh"
#include "core/stats_table.hh"
#include "core/talloc.hh"
#include "sched/registry.hh"
#include "sched/scheduler.hh"

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

/** SchedTask variant knobs: the paper's Figure 9 steal policies,
 *  the Section 6.5 ideal ranking and the TAlloc ablation axes. */
struct SchedTaskParams
{
    /** Work-stealing strategy (Section 6.4 / Figure 9). */
    StealPolicy stealPolicy = StealPolicy::SameAndSimilar;
    /** Program the interrupt controller from the allocation. */
    bool routeInterrupts = true;
    /** Use exact footprint overlap (ideal ranking, Section 6.5). */
    bool useExactOverlap = false;
    /** EMA weight on each new epoch's demand share (see TAlloc). */
    double demandSmoothing = 0.5;

    auto operator<=>(const SchedTaskParams &) const = default;
};

class SchedTaskScheduler : public QueueScheduler
{
  public:
    explicit SchedTaskScheduler(const SchedTaskParams &params = {});

    const char *name() const override { return "SchedTask"; }

    void attach(Machine &machine) override;
    SuperFunction *pickNext(CoreId core) override;
    CoreId routeIrq(IrqId irq) override;
    void onEpoch() override;
    void onSliceEnd(CoreId core, const SuperFunction *sf, Cycles elapsed,
                    std::uint64_t insts,
                    const PageHeatmap &heatmap) override;
    bool wantsHeatmap() const override { return true; }
    SchedOverhead overheadFor(SchedEvent event,
                              const SuperFunction *sf) const override;
    SchedEpochReport epochDecision() const override;

    /** Last TAlloc outputs (introspection for tests/benches). */
    const AllocTable &allocTable() const { return alloc_; }
    const OverlapTable &overlapTable() const { return overlap_; }
    const TAlloc &talloc() const { return *talloc_; }

    /** Count of successful steals per level (ablation reporting). */
    std::uint64_t sameWorkSteals() const { return same_steals_; }
    std::uint64_t similarWorkSteals() const { return similar_steals_; }

  protected:
    CoreId choosePlacement(SuperFunction *sf,
                           PlacementReason reason) override;

    /** Mean observed execution time of a type (placement costing). */
    Cycles avgExecTimeOf(SfType type) const;

    /** TMigrate's waiting-time weight: waitingCost(avgExecTimeOf). */
    Cycles queueCost(SfType type) const override;

    /**
     * The least-waiting-time core among an allocation's candidates
     * (Algorithm 1, startSuperFunction); the first on a tie.
     */
    CoreId selectLeastWaitingCore(
        const std::vector<CoreId> &candidates) const;

    /**
     * Level-1 stealing: remove and return the first queued
     * SuperFunction whose type `alloc` gives to `thief`, taken from
     * the queue with the maximum waiting time. nullptr when nothing
     * qualifies.
     */
    SuperFunction *stealSameWork(const AllocTable &alloc, CoreId thief);

    /**
     * Level-2 stealing: walk the merged overlap list of the thief's
     * types in `alloc`; steal half of the matching SuperFunctions
     * (at least one), in queue order, from the first remote queue
     * that holds any. Empty when nothing qualifies.
     */
    std::vector<SuperFunction *>
    stealSimilarWork(const AllocTable &alloc, const OverlapTable &overlap,
                     CoreId thief);

    /**
     * Type-agnostic alternative: steal the tail half of the queue
     * with the maximum waiting time, last SuperFunction first.
     */
    std::vector<SuperFunction *> stealFromBusiest(CoreId thief);

  private:
    void replaceQueuedWork();
    void noteDispatchWait(CoreId core, SuperFunction *sf);

    SchedTaskParams params_;
    std::unique_ptr<TAlloc> talloc_;
    std::vector<StatsTable> core_stats_;
    AllocTable alloc_;
    OverlapTable overlap_;
    std::uint64_t same_steals_ = 0;
    std::uint64_t similar_steals_ = 0;
    /** queueVersion() at each core's last failed steal scan. */
    std::vector<std::uint64_t> last_scan_version_;
    /** Cumulative idle cycles at the last epoch boundary. */
    std::uint64_t last_idle_cycles_ = 0;
    /** Outcome of the last TAlloc run (telemetry). */
    bool last_reallocated_ = false;
    std::uint64_t last_placement_moves_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_CORE_SCHEDTASK_SCHED_HH
