/**
 * @file
 * SLICC baseline (Atta et al., MICRO 2012).
 *
 * SLICC self-assembles "instruction cache collectives": an
 * application's instruction footprint is partitioned into
 * i-cache-sized segments, each segment is bound to a small set of
 * home cores, and hardware migrates a thread to a core that holds
 * the lines it fetches next. When every home core of a segment is
 * backlogged, the collective grows by another core (the
 * self-assembly), so capacity follows demand. Three defining
 * properties are modelled:
 *
 *  - segment maps are *per application* (threads of the same
 *    application share them), so common OS execution is reused
 *    across threads of one application but NOT across different
 *    applications — the weakness the appendix exposes with
 *    multi-programmed bags;
 *  - there is no work stealing: a core whose segments are not in
 *    demand idles, giving SLICC its 41% idle fraction at the 1X
 *    workload (Table 4);
 *  - migrations are frequent (the highest of all techniques in
 *    Figure 10) because threads chase their code across cores.
 */

#ifndef SCHEDTASK_SCHED_SLICC_HH
#define SCHEDTASK_SCHED_SLICC_HH

#include <unordered_map>
#include <vector>

#include "sched/scheduler.hh"

namespace schedtask
{

class SliccScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "SLICC"; }

    void attach(Machine &machine) override;
    CoreId midSfPlacement(SuperFunction *sf, CoreId current) override;

    /** Collectives shrink slowly so they track falling demand. */
    void onEpoch() override;

    /**
     * SLICC's migrations are pure hardware: the paper's Table 3
     * evaluates it with a zero-cycle delay to search remote tags,
     * so scheduler entry points cost nothing.
     */
    SchedOverhead
    overheadFor(SchedEvent event, const SuperFunction *sf) const override
    {
        (void)event;
        (void)sf;
        return {};
    }

    SchedEpochReport epochDecision() const override;

    /** Number of distinct segments discovered (tests). */
    std::size_t segmentsDiscovered() const { return seg_homes_.size(); }

    /** Home cores of the segment under the SF's cursor (tests). */
    const std::vector<CoreId> &homesOf(SuperFunction *sf);

  protected:
    CoreId choosePlacement(SuperFunction *sf,
                           PlacementReason reason) override;

  private:
    /** Application identity whose threads share segment maps. */
    static std::uint64_t appIdentityOf(const SuperFunction *sf);

    /** Key of the segment under the SF's cursor. */
    std::uint64_t segmentKeyOf(const SuperFunction *sf) const;

    /** Pick (possibly growing) the home core for a segment. */
    CoreId segmentHome(SuperFunction *sf);

    /** (app identity, footprint, segment) -> home cores. */
    std::unordered_map<std::uint64_t, std::vector<CoreId>> seg_homes_;
    /** Per-application round-robin spread counter. */
    std::unordered_map<std::uint64_t, CoreId> next_core_;
    /** Epochs seen (collectives shrink every fourth). */
    std::uint64_t epoch_counter_ = 0;
    /** Collectives shrunk at the last epoch boundary. */
    std::uint64_t last_shrunk_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_SLICC_HH
