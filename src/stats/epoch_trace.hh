/**
 * @file
 * Epoch-level telemetry (the observability layer).
 *
 * The figures report end-of-window aggregates, but the paper's
 * narrative — breakup cosine similarity, the 0.98 re-allocation
 * guard, per-epoch overlap tables (Sections 4.4/5.2), a thread's
 * SuperFunctions hopping between cores (Figure 5) — is a
 * time-series story. When tracing is enabled, the Machine snapshots
 * one EpochSample per epoch boundary: per-core occupancy by
 * SuperFunction category, instructions per superFuncType, idle
 * cycles, migrations, interrupt counts, L1i/L2 miss rates, and the
 * scheduler's own per-epoch decision report (SchedEpochReport), and
 * it records every SuperFunction lifecycle event (SfEvent). Both
 * live in bounded rings (EpochTrace) so long simulations cannot
 * exhaust memory; metricsSnapshot() copies them into SimMetrics.
 *
 * Exporters (JSON Lines and Chrome trace-event format) live in
 * harness/trace_export.hh.
 */

#ifndef SCHEDTASK_STATS_EPOCH_TRACE_HH
#define SCHEDTASK_STATS_EPOCH_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/sf_type.hh"

namespace schedtask
{

/**
 * What the scheduler decided at an epoch boundary. Filled by the
 * optional Scheduler::epochDecision() hook; every technique maps
 * its own notions onto these fields (documented per field).
 */
struct SchedEpochReport
{
    /** Breakup cosine similarity against the previous epoch
     *  (SchedTask's TAlloc; 1.0 for techniques without one). */
    double cosineSimilarity = 1.0;

    /** True when this boundary changed placements: a TAlloc
     *  re-allocation, Linux load-balance moves, a FlexSC core
     *  repartition, a SLICC collective shrink, a DisAggregateOS
     *  region reassignment. */
    bool reallocated = false;

    /** Entities with dedicated core assignments: superFuncTypes
     *  (SchedTask), OS regions (DisAggregateOS), code segments
     *  (SLICC), offloaded categories (SelectiveOffload). */
    unsigned allocTypes = 0;

    /** Cores covered by those assignments (syscall cores for
     *  FlexSC, OS cores for SelectiveOffload). */
    unsigned allocCores = 0;

    /** SuperFunctions waiting in run queues at the boundary. */
    std::uint64_t queuedSfs = 0;

    /** Queued SuperFunctions re-placed / load-balanced at this
     *  boundary (TAlloc's queued-work transfer, Linux balancer
     *  moves). */
    std::uint64_t placementMoves = 0;

    /** Cumulative successful work steals (SchedTask's TMigrate:
     *  same-work plus similar-work levels). */
    std::uint64_t workSteals = 0;

    /** Summed Page-heatmap popcount over the system stats table
     *  aggregated at this boundary (heatmap occupancy). */
    std::uint64_t heatmapSetBits = 0;

    /** Summed directed pairwise overlap over the overlap table. */
    std::uint64_t heatmapOverlap = 0;

    /** Figure 11's ranking fidelity, rankingTau() of the overlap
     *  table against the epoch's exact touched pages (SchedTask,
     *  when the machine tracks exact pages; 0 otherwise). */
    double rankingTau = 0.0;
};

/** One core's occupancy during one epoch. */
struct EpochCoreSample
{
    /** Instructions retired per SuperFunction category (scheduler
     *  routines excluded, as in the stats tables). */
    std::uint64_t instsByCategory[numSfCategories] = {};

    /** Idle cycles of this core during the epoch. */
    std::uint64_t idleCycles = 0;
};

/** Everything sampled at one epoch boundary. */
struct EpochSample
{
    /** Epoch number since the last resetStats(). */
    std::uint64_t index = 0;

    /** Epoch bounds in simulated cycles. */
    Cycles startCycle = 0;
    Cycles endCycle = 0;

    /** Instructions retired this epoch (including overhead). */
    std::uint64_t instsRetired = 0;

    /** Scheduler-routine instructions this epoch. */
    std::uint64_t overheadInsts = 0;

    /** Section 4.4's breakup: instructions retired this epoch per
     *  superFuncType (raw encoding), scheduler routines excluded.
     *  Its iteration order is deterministic for a given run. */
    std::unordered_map<std::uint64_t, std::uint64_t> instsByType;

    /** Inter-core thread migrations this epoch. */
    std::uint64_t migrations = 0;

    /** Idle core-cycles summed over all cores this epoch. */
    std::uint64_t idleCycles = 0;

    /** Interrupts serviced this epoch. */
    std::uint64_t irqCount = 0;

    /** L1 i-cache miss rate over this epoch (app + OS), in [0,1]. */
    double l1iMissRate = 0.0;

    /** Private unified L2 miss rate over this epoch, in [0,1];
     *  0 when the hierarchy has no private L2 or saw no accesses. */
    double l2MissRate = 0.0;

    /** The scheduler's decision report for this boundary. */
    SchedEpochReport sched;

    /** Per-core occupancy, indexed by core ID. */
    std::vector<EpochCoreSample> cores;
};

/** Kind of a SuperFunction lifecycle event. */
enum class SfEventKind : std::uint8_t
{
    Dispatch, ///< a core started executing a SuperFunction slice
    Complete, ///< the SuperFunction finished
    Block,    ///< it went to the waiting state (device I/O)
    Wakeup,   ///< it became runnable again
    Pause,    ///< preempted in place by an interrupt
    Migrate,  ///< it will continue on a different core
};

/** Human-readable event-kind name. */
const char *sfEventKindName(SfEventKind kind);

/** One SuperFunction lifecycle event (Figure 5's timeline). It
 *  carries the type, not its name, so it outlives the run's
 *  catalog; any BenchmarkSuite's SfCatalog::bySfType names it. */
struct SfEvent
{
    Cycles when = 0;
    SfEventKind kind = SfEventKind::Dispatch;
    CoreId core = invalidCore;
    ThreadId tid = invalidThread;
    SfType type;
    std::uint64_t sfId = 0;
};

/** Bounded ring: the most recent `capacity` items, oldest dropped. */
template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(std::size_t capacity) : capacity_(capacity)
    {
        SCHEDTASK_ASSERT(capacity_ >= 1, "ring needs capacity");
    }

    void
    push(T item)
    {
        if (ring_.size() < capacity_)
            ring_.push_back(std::move(item));
        else
            ring_[total_ % capacity_] = std::move(item);
        ++total_;
    }

    /** Items in chronological order (oldest retained first). */
    std::vector<T>
    items() const
    {
        const std::size_t head =
            ring_.size() < capacity_ ? 0 : total_ % capacity_;
        std::vector<T> out;
        out.reserve(ring_.size());
        std::rotate_copy(ring_.begin(), ring_.begin() + head,
                         ring_.end(), std::back_inserter(out));
        return out;
    }

    /** Items currently held. */
    std::size_t size() const { return ring_.size(); }

    /** Items pushed since the last clear (ignores eviction). */
    std::uint64_t totalRecorded() const { return total_; }

    void
    clear()
    {
        ring_.clear();
        total_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<T> ring_;
    std::uint64_t total_ = 0;
};

/** One run's telemetry: the most recent epoch samples and
 *  SuperFunction events, each in its own bounded ring. */
class EpochTrace
{
  public:
    EpochTrace(std::size_t epoch_capacity, std::size_t event_capacity)
        : samples_(epoch_capacity), events_(event_capacity)
    {
    }

    /** Append one epoch sample (checked builds verify it extends
     *  the previous one). */
    void record(EpochSample sample);

    /** Append one SuperFunction event (out of line: the event
     *  call sites in Machine stay small when tracing is off). */
    void record(const SfEvent &event);

    const BoundedRing<EpochSample> &samples() const { return samples_; }
    const BoundedRing<SfEvent> &events() const { return events_; }

    /** Drop every sample and event (stats reset). */
    void
    clear()
    {
        samples_.clear();
        events_.clear();
    }

  private:
    BoundedRing<EpochSample> samples_;
    BoundedRing<SfEvent> events_;
    /** End cycle of the last recorded sample. */
    Cycles last_end_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_STATS_EPOCH_TRACE_HH
