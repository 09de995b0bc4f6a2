/**
 * @file
 * Per-core execution engine.
 *
 * A Core advances its local clock by executing fetch blocks (one
 * i-cache line, 16 instructions) of the current SuperFunction,
 * charging exposed memory stalls from the hierarchy. It services
 * pending interrupts by pausing the current SuperFunction in place
 * (the paper's semantics), charges scheduler-routine execution at
 * every SuperFunction boundary, maintains the per-core Page-heatmap
 * register, enforces the timeslice on application SuperFunctions,
 * and performs the mid-SuperFunction placement checks SLICC uses.
 *
 * The per-block state is split structure-of-arrays style: everything
 * the executeCurrent inner loop reads or writes lives in a compact
 * Core::HotState that the Machine packs contiguously for all cores,
 * while configuration, queues and stats brackets stay in the Core
 * object itself. The inner loop also runs in *segments*: boundary
 * conditions (block point, budget, timeslice, mid-SF placement) are
 * converted to a block count up front, so the per-block work is just
 * the fetch, the data accesses and the clock charge.
 */

#ifndef SCHEDTASK_SIM_CORE_HH
#define SCHEDTASK_SIM_CORE_HH

#include <deque>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "core/page_heatmap.hh"
#include "core/super_function.hh"
#include "sched/scheduler.hh"
#include "sim/interrupt.hh"
#include "workload/footprint.hh"

namespace schedtask
{

class Machine;

/**
 * One simulated core.
 */
class Core
{
  public:
    /** Recently touched data lines: temporal bursts (stack slots,
     *  struct fields) re-access the same lines. */
    static constexpr unsigned recentDataSize = 16;
    static constexpr double recentReuseProb = 0.6;

    /** Hot-subset locality of data regions (see pickDataAddr). */
    static constexpr double hotSubsetProb = 0.9;
    static constexpr std::uint64_t hotBytesCap = 12 * 1024;

    /**
     * One data region the running SuperFunction may access, with the
     * address math of pickDataAddr pre-resolved to line counts.
     * fullLines == 0 marks an absent region; hotLines != 0 marks a
     * region larger than the hot-subset cap, where most accesses
     * draw from the first hotLines lines only.
     */
    struct DataRegion
    {
        Addr base = 0;
        std::uint64_t fullLines = 0;
        std::uint64_t hotLines = 0;
    };

    /**
     * State touched on every fetch block, split from the cold Core
     * fields (config, IRQ queue, stats brackets) so the inner loop's
     * working set is one compact block. The Machine owns one
     * contiguous array of these for all cores (SoA packing).
     *
     * The data-region spec (regions/sharedOdds/drawRegion/primary)
     * and writeOdds are recomputed by beginSlice: they depend only on
     * the running SuperFunction's type info and thread, both fixed
     * for the lifetime of a dispatch.
     */
    struct HotState
    {
        Cycles clock = 0;
        SuperFunction *current = nullptr;
        Rng rng;
        std::uint64_t sliceInsts = 0;
        Cycles sliceStart = 0;
        unsigned blocksSinceCheck = 0;
        unsigned recentCount = 0;
        unsigned recentPos = 0;
        /** regions[0] = shared, regions[1] = private. */
        DataRegion regions[2];
        Rng::Odds sharedOdds{0.0};
        /** Both regions present: draw chance(sharedOdds) per access. */
        bool drawRegion = false;
        /** Per data access: is it a write (SfTypeInfo::writeFraction). */
        Rng::Odds writeOdds{0.0};
        /** Region index used when no draw is needed. */
        unsigned primary = 1;
        Addr recentData[recentDataSize] = {};
    };

    Core(CoreId id, Machine &machine, unsigned heatmap_bits,
         HotState &hot, Rng rng);

    /**
     * Advance the local clock toward `limit`, executing work.
     *
     * Returns true when any progress was made (the clock advanced).
     * When the core has nothing to do it returns false with the
     * clock untouched, so the Machine can re-poll it within the
     * same quantum after other cores produced work, and charge idle
     * time only for the genuinely workless remainder.
     */
    bool runUntil(Cycles limit);

    /** Queue an interrupt for servicing. */
    void deliverIrq(const PendingIrq &irq);

    /** Local clock (synchronized to quantum ends by the Machine). */
    Cycles clock() const { return hot_.clock; }

    /** Force the local clock forward (Machine quantum sync). */
    void syncClock(Cycles to);

    CoreId id() const { return id_; }

    /** Per-core Page-heatmap register (Section 3.2 hardware). */
    const PageHeatmap &heatmapRegister() const { return heatmap_; }

  private:
    friend class Machine;

    /** True when the running SuperFunction is an interrupt handler. */
    bool inIrqHandler() const;

    /** Service the oldest pending interrupt. */
    void startIrqHandler();

    /** Execute the current SuperFunction until a boundary or limit. */
    void executeCurrent(Cycles limit);

    /** Begin an execution slice (stats bracket + data-region spec). */
    void beginSlice(SuperFunction *sf);

    /** End the current execution slice (stats bracket). */
    void endSlice(SuperFunction *sf);

    /** Run scheduler-routine instructions on this core. */
    void chargeOverhead(SchedEvent event, const SuperFunction *sf);

    /** Pick a data address for the running SuperFunction. */
    Addr pickDataAddr();

    HotState &hot_;
    CoreId id_;
    Machine &m_;
    std::vector<SuperFunction *> paused_;
    std::deque<PendingIrq> pending_irqs_;
    PageHeatmap heatmap_;
    FootprintWalker overhead_walker_;
};

} // namespace schedtask

#endif // SCHEDTASK_SIM_CORE_HH
