/**
 * @file
 * Scheduler interface and shared run-queue machinery.
 *
 * A Scheduler decides, at SuperFunction boundaries, on which core
 * each SuperFunction executes, and supplies cores with work when
 * they go idle. The Machine invokes the scheduler at exactly the
 * points the paper instruments with TMigrate hooks (Section 5.1):
 * SuperFunction start, completion (resume of the parent), block,
 * wakeup, timeslice yield, and once per epoch. Scheduler-routine
 * execution cost is charged through overheadFor(), so techniques
 * with expensive software paths (e.g. FlexSC's per-syscall trip
 * through the Linux scheduler) pay for them in simulated time.
 *
 * QueueScheduler owns the per-core run queues, their waiting-time
 * backlogs and the per-type queued counts; techniques built on it,
 * TMigrate's steals included, read the queues and remove work only
 * through its members.
 */

#ifndef SCHEDTASK_SCHED_SCHEDULER_HH
#define SCHEDTASK_SCHED_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/super_function.hh"
#include "stats/epoch_trace.hh"

namespace schedtask
{

/** Raised for an unregistered technique name (SchedulerRegistry), or
 *  a machine shape a technique cannot run on (configureMachine). */
class TechniqueError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class Machine;
struct MachineParams;
class PageHeatmap;

/** Which scheduler entry point is being charged for. */
enum class SchedEvent : std::uint8_t
{
    Dispatch, ///< a core picked a SuperFunction to run
    Start,    ///< a new SuperFunction was created
    Complete, ///< a SuperFunction finished
    Block,    ///< a SuperFunction went to the waiting state
    Wakeup,   ///< a SuperFunction became runnable again
    Yield,    ///< timeslice preemption
    Epoch,    ///< per-epoch work (TAlloc)
};

/** Why a SuperFunction is being (re)placed on a core. */
enum class PlacementReason : std::uint8_t
{
    NewSf,  ///< first placement of a fresh SuperFunction
    Resume, ///< parent resuming after a child completed
    Wakeup, ///< waiting SuperFunction woken by a bottom half
    Yield,  ///< re-queued after timeslice preemption
};

/** Scheduler-code execution charged to a core. */
struct SchedOverhead
{
    std::uint64_t insts = 0;
    const SfTypeInfo *code = nullptr;
};

/**
 * Abstract scheduler.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Technique name as used in the paper's figures. */
    virtual const char *name() const = 0;

    /**
     * Cores this technique runs on given the baseline count
     * (SelectiveOffload uses twice the cores, Section 6.1).
     */
    virtual unsigned
    coresRequired(unsigned baseline_cores) const
    {
        return baseline_cores;
    }

    /**
     * Adjust machine parameters before the Machine is built. The
     * harness calls this after fixing the core count and before
     * constructing the Machine. The base implementation changes
     * nothing; a technique with a machine-shape constraint (FlexSC's
     * syscall/application core split) checks it here. Must be
     * deterministic and must not retain the reference. Throws
     * TechniqueError for a machine shape the technique cannot run on.
     */
    virtual void configureMachine(MachineParams &) const {}

    /** Bind to the machine; called once before simulation. */
    virtual void attach(Machine &machine);

    /** A new SuperFunction must be placed and queued. */
    virtual void onSfStart(SuperFunction *sf) = 0;

    /** A SuperFunction completed; its parent (if any) resumes. */
    virtual void onSfResume(SuperFunction *parent,
                            const SuperFunction *completed_child) = 0;

    /** The running SuperFunction blocked for a device. */
    virtual void onSfBlock(SuperFunction *sf) = 0;

    /** A waiting SuperFunction was woken by a bottom half. */
    virtual void onSfWakeup(SuperFunction *sf) = 0;

    /** The running SuperFunction was preempted by the timeslice. */
    virtual void onSfYield(SuperFunction *sf) = 0;

    /** A core asks for work; may steal; nullptr = stay idle. */
    virtual SuperFunction *pickNext(CoreId core) = 0;

    /** True when the core's queue holds at least one SuperFunction. */
    virtual bool hasRunnable(CoreId core) const = 0;

    /** Which core services the given interrupt vector. */
    virtual CoreId routeIrq(IrqId irq) = 0;

    /** Epoch boundary (TAlloc in SchedTask). */
    virtual void onEpoch() {}

    /**
     * Telemetry report for the decision taken at the last epoch
     * boundary; the Machine calls this right after onEpoch() when
     * epoch tracing is enabled. Pure observation: implementations
     * must not mutate scheduling state here.
     */
    virtual SchedEpochReport epochDecision() const { return {}; }

    /**
     * Mid-SuperFunction placement check (every execution chunk).
     * SLICC migrates threads here; everyone else stays put.
     *
     * @return the core the SuperFunction should continue on.
     */
    virtual CoreId
    midSfPlacement(SuperFunction *sf, CoreId current)
    {
        (void)sf;
        return current;
    }

    /** Scheduler-code cost for an entry point. */
    virtual SchedOverhead overheadFor(SchedEvent event,
                                      const SuperFunction *sf) const;

    /**
     * Execution-slice accounting hook (the paper's
     * startStatsCollection/stopStatsCollection pair). Called when a
     * SuperFunction stops executing on a core for any reason.
     */
    virtual void
    onSliceEnd(CoreId core, const SuperFunction *sf, Cycles elapsed,
               std::uint64_t insts, const PageHeatmap &heatmap)
    {
        (void)core;
        (void)sf;
        (void)elapsed;
        (void)insts;
        (void)heatmap;
    }

    /** True when the machine should maintain heatmap registers. */
    virtual bool wantsHeatmap() const { return false; }

    /**
     * Structural self-check of the scheduler's own bookkeeping; the
     * Machine calls it after onEpoch() in checked builds
     * (common/invariants.hh). Must not mutate scheduling state.
     */
    virtual void checkInvariants() const {}

  protected:
    Machine *machine_ = nullptr;
};

/**
 * Shared per-core FIFO run-queue machinery.
 *
 * Concrete techniques implement choosePlacement() (and optionally
 * override pickNext for work stealing); the base class keeps the
 * queues, the FCFS order the paper relies on for fairness, and the
 * default event plumbing. It is the only owner of the queues: every
 * way into a queue (enqueue) and out of one (popHead, takeBack,
 * takeMatching, drainAllQueues) is a member here, and each keeps the
 * per-core backlog and the per-type counts. Techniques read the
 * queues through queueOf() and never erase from them directly.
 */
class QueueScheduler : public Scheduler
{
  public:
    void attach(Machine &machine) override;

    void onSfStart(SuperFunction *sf) override;
    void onSfResume(SuperFunction *parent,
                    const SuperFunction *completed_child) override;
    void onSfBlock(SuperFunction *sf) override;
    void onSfWakeup(SuperFunction *sf) override;
    void onSfYield(SuperFunction *sf) override;
    SuperFunction *pickNext(CoreId core) override;
    bool hasRunnable(CoreId core) const override;
    CoreId routeIrq(IrqId irq) override;
    SchedEpochReport epochDecision() const override;

    /**
     * Every queued SuperFunction records the core it is queued on,
     * and every backlog equals the sum of queueCost() over its queue.
     */
    void checkInvariants() const override;

    /**
     * Per-core waiting time: the summed queueCost() of the
     * SuperFunctions in each core's queue, kept as a running counter
     * (debited on every removal, credited on every enqueue).
     */
    const std::vector<Cycles> &backlogs() const { return backlog_; }

  protected:
    /** Decide the core for a SuperFunction. */
    virtual CoreId choosePlacement(SuperFunction *sf,
                                   PlacementReason reason) = 0;

    /** Append to a core's runnable queue. */
    void enqueue(CoreId core, SuperFunction *sf);

    /** Pop the head of a core's queue; nullptr when empty. */
    SuperFunction *popHead(CoreId core);

    /** Pop the tail of a core's queue; nullptr when empty. */
    SuperFunction *takeBack(CoreId core);

    /**
     * Remove up to `n` SuperFunctions that satisfy `pred` from a
     * core's queue in one pass, in queue order, writing each to
     * `out`; the others keep their order. Returns the advanced
     * output iterator.
     */
    template <typename Pred, typename OutIt>
    OutIt
    takeMatching(CoreId core, std::size_t n, Pred pred, OutIt out)
    {
        auto &q = queues_[core];
        for (auto it = q.begin(); it != q.end() && n > 0;) {
            if (pred(static_cast<const SuperFunction *>(*it))) {
                SuperFunction *sf = *it;
                it = q.erase(it);
                noteQueueRemoval(sf);
                *out++ = sf;
                --n;
            } else {
                ++it;
            }
        }
        return out;
    }

    /** Remove every queued SuperFunction and return them. */
    std::vector<SuperFunction *> drainAllQueues();

    /** Queue length of a core. */
    std::size_t queueLen(CoreId core) const;

    /** Total queued SuperFunctions. */
    std::size_t totalQueued() const;

    /** Least-loaded core in [first, last]. */
    CoreId leastLoaded(CoreId first, CoreId last) const;

    /** Number of cores (valid after attach). */
    unsigned numCores() const { return num_cores_; }

    /**
     * The core a SuperFunction runs on when its technique has no
     * placement for it (Algorithm 1: "execute locally"): the core it
     * last ran on, else one derived from its thread id.
     */
    CoreId localCore(const SuperFunction *sf) const;

    /**
     * Distinct cores named by a technique's per-key core lists (an
     * epoch report's allocCores); out-of-range ids are ignored.
     */
    unsigned coveredCores(
        const std::unordered_map<std::uint64_t, std::vector<CoreId>>
            &core_lists) const;

    /** Read access to a core's queue. */
    const std::deque<SuperFunction *> &queueOf(CoreId core) const;

    /**
     * Monotonic counter bumped on every enqueue. Idle cores use it
     * to skip steal scans when nothing changed since their last
     * failed attempt.
     */
    std::uint64_t queueVersion() const { return queue_version_; }

    /** Number of queued SuperFunctions of a given type. */
    std::size_t queuedCountOf(SfType type) const;

    /**
     * Waiting-time weight of one queued SuperFunction of a type;
     * 0 (no backlog) unless a technique places by waiting time. The
     * weights may change only if rebuildBacklogs() follows at once.
     */
    virtual Cycles
    queueCost(SfType type) const
    {
        (void)type;
        return 0;
    }

    /** Recompute every core's backlog from its queue. */
    void rebuildBacklogs();

  private:
    /**
     * Bookkeeping for a SuperFunction just removed from its queue:
     * debits the backlog of the core it was queued on (sf->coreId)
     * and the per-type count.
     */
    void noteQueueRemoval(const SuperFunction *sf);

    /** Sum of queueCost() over a core's queue. */
    Cycles scanBacklog(CoreId core) const;

    unsigned num_cores_ = 0;
    std::vector<std::deque<SuperFunction *>> queues_;
    /** Per-core running waiting time; see backlogs(). */
    std::vector<Cycles> backlog_;
    IrqId rr_irq_core_ = 0;
    std::uint64_t queue_version_ = 0;
    std::unordered_map<std::uint64_t, std::size_t> queued_by_type_;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_SCHEDULER_HH
