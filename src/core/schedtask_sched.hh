/**
 * @file
 * The SchedTask scheduler: TAlloc + TMigrate glued onto the
 * simulator's scheduler interface (Section 5).
 *
 * Per-core stats tables are filled by the stopStatsCollection hook
 * (onSliceEnd). At every epoch boundary TAlloc aggregates them,
 * rebuilds the allocation/overlap tables when the workload mix
 * shifted, programs the interrupt controller, and re-places queued
 * SuperFunctions under the new allocation. TMigrate performs
 * placement (least-waiting allocated core) and two-level work
 * stealing when a core runs dry.
 */

#ifndef SCHEDTASK_CORE_SCHEDTASK_SCHED_HH
#define SCHEDTASK_CORE_SCHEDTASK_SCHED_HH

#include <memory>
#include <vector>

#include "core/alloc_table.hh"
#include "core/overlap_table.hh"
#include "core/stats_table.hh"
#include "core/talloc.hh"
#include "core/tmigrate.hh"
#include "sched/registry.hh"
#include "sched/scheduler.hh"

namespace schedtask
{

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

    /** view_ holds pointers into this object and captures `this`. */
    SchedTaskScheduler(const SchedTaskScheduler &) = delete;
    SchedTaskScheduler &operator=(const SchedTaskScheduler &) = delete;

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

  private:
    void replaceQueuedWork();
    void noteDispatchWait(CoreId core, SuperFunction *sf);

    SchedTaskParams params_;
    std::unique_ptr<TAlloc> talloc_;
    std::vector<StatsTable> core_stats_;
    AllocTable alloc_;
    OverlapTable overlap_;
    /** Queues + backlogs for TMigrate; built once in attach(). */
    TMigrateView view_;
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
