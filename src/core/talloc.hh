/**
 * @file
 * TAlloc: the epoch scheduler (Section 5.2).
 *
 * At the start of each epoch, TAlloc (running on core 0):
 *  1. aggregates the per-core stats tables of the previous epoch
 *     into the system-wide stats table (Figure 6);
 *  2. compares the execution-fraction breakup against the previous
 *     epoch's and re-allocates cores only when the cosine
 *     similarity drops below 0.98 (to avoid gratuitous thread
 *     transfers);
 *  3. rebuilds the overlap table from the Page-heatmaps (or exact
 *     footprints in the ideal-ranking mode of Section 6.5);
 *  4. reports which interrupt IDs should be routed to which cores.
 */

#ifndef SCHEDTASK_CORE_TALLOC_HH
#define SCHEDTASK_CORE_TALLOC_HH

#include <cstdint>
#include <unordered_map>
#include <functional>
#include <vector>

#include "core/alloc_table.hh"
#include "core/overlap_table.hh"
#include "core/stats_table.hh"

namespace schedtask
{

/** Interrupt route decided by TAlloc. */
struct IrqRoute
{
    IrqId irq;
    CoreId core;
};

/** Output of one TAlloc invocation. */
struct TAllocResult
{
    bool reallocated = false;
    AllocTable alloc;
    OverlapTable overlap;
    std::vector<IrqRoute> irqRoutes;
};

/**
 * The TAlloc policy object. Holds the system-wide stats table and
 * the previous epoch's breakup vector between invocations.
 */
class TAlloc
{
  public:
    /** The last two are SchedTaskParams' useExactOverlap (exact
     *  footprints instead of Bloom heatmaps) and demandSmoothing (EMA
     *  weight on each new epoch's demand share, which damps
     *  allocation ping-pong). */
    TAlloc(unsigned num_cores, unsigned heatmap_bits,
           bool use_exact_overlap, double demand_smoothing);

    /**
     * Run the epoch-start work.
     *
     * @param per_core_stats the per-core stats tables of the last
     *                       epoch; they are aggregated and cleared.
     * @param current        current allocation (kept when the
     *                       breakup is stable)
     * @param queued_count   SuperFunctions of a type still queued
     *                       at the epoch boundary. Their expected
     *                       execution time counts as demand so
     *                       that a saturated type attracts more
     *                       cores instead of freezing at whatever
     *                       share its current cores can serve.
     * @param use_wait_signal when true (the previous epoch had idle
     *                       cores coexisting with queued work), the
     *                       per-type queue waits are added to the
     *                       demand weights to shift cores toward
     *                       the starved types. Under a balanced,
     *                       saturated system queue waits are normal
     *                       and the signal is ignored.
     */
    TAllocResult run(std::vector<StatsTable> &per_core_stats,
                     const AllocTable &current,
                     const std::function<std::size_t(SfType)>
                         &queued_count = {},
                     bool use_wait_signal = false);

    /** System-wide stats table of the last aggregated epoch. */
    const StatsTable &systemStats() const { return system_stats_; }

    /** Cosine similarity measured at the last run (1 on first). */
    double lastSimilarity() const { return last_similarity_; }

  private:
    unsigned num_cores_;
    unsigned heatmap_bits_;
    bool use_exact_overlap_;
    double demand_smoothing_;
    StatsTable system_stats_;
    /** Type order and breakup at the last re-allocation. */
    std::vector<std::uint64_t> basis_order_;
    std::vector<double> prev_breakup_;
    /** Exponentially smoothed demand share per type. */
    std::unordered_map<std::uint64_t, double> smoothed_share_;
    double last_similarity_ = 1.0;
    bool first_run_ = true;
};

} // namespace schedtask

#endif // SCHEDTASK_CORE_TALLOC_HH
