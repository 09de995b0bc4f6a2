/**
 * @file
 * The simulated machine: cores, memory hierarchy, interrupt
 * controller, device event queue, thread population, and the
 * scheduler under evaluation.
 *
 * Time advances in synchronized quanta: each quantum, due device
 * events fire (raising interrupts, waking SuperFunctions), then
 * every core runs up to the quantum end. Epoch boundaries invoke
 * the scheduler's per-epoch work (TAlloc for SchedTask). This is
 * the quantum-synchronization scheme used by parallel full-system
 * simulators; with the 250-cycle quantum the cross-core skew is
 * negligible at the paper's 3 ms epochs.
 */

#ifndef SCHEDTASK_SIM_MACHINE_HH
#define SCHEDTASK_SIM_MACHINE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "core/overlap_table.hh"
#include "core/super_function.hh"
#include "mem/hierarchy.hh"
#include "sched/scheduler.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "sim/interrupt.hh"
#include "sim/metrics.hh"
#include "sim/thread.hh"
#include "stats/epoch_trace.hh"
#include "workload/benchmarks.hh"
#include "workload/sf_arena.hh"
#include "workload/workload.hh"

namespace schedtask
{

/** Quantum length for core synchronization. Small enough that a
 *  cross-core enqueue rarely strands an idle core for long. */
inline constexpr Cycles quantumCycles = 250;

/** Timeslice for application SuperFunctions, in instructions. */
inline constexpr std::uint64_t timesliceInsts = 20000;

/** Pipelined cost of one 16-instruction fetch block. */
inline constexpr Cycles blockBaseCycles = 8;

/** Mean data accesses per fetch block. */
inline constexpr double dataAccessesPerBlock = 1.2;

/** Fixed interrupt entry cost. */
inline constexpr Cycles irqEntryCycles = 120;

/** Cadence (in fetch blocks) of mid-SF placement checks. */
inline constexpr unsigned midSfCheckBlocks = 32;

/** Epochs kept in the telemetry ring (oldest evicted). */
inline constexpr std::size_t traceEpochCapacity = 8192;

/** SuperFunction events kept in the telemetry ring: the most recent
 *  ones of the measured window (oldest evicted). */
inline constexpr std::size_t traceEventCapacity = 4096;

/** Top-level simulation parameters. */
struct MachineParams
{
    /** Number of cores the machine is built with (already adjusted
     *  for techniques that use extra cores). */
    unsigned numCores = 32;

    /** Epoch length (the paper's 3 ms, at simulation time scale). */
    Cycles epochCycles = 250000;

    /** Core frequency used to convert cycles to seconds. */
    double coreFrequencyGHz = 2.0;

    /** Master seed; every stochastic stream derives from it. */
    std::uint64_t seed = 1;

    /** Page-heatmap register width (Section 6.5 sweeps this). */
    unsigned heatmapBits = 512;

    /** Track the exact set of code pages each superFuncType
     *  touches per epoch (ground truth for the Fig. 11 ranking
     *  study, reported as SchedEpochReport::rankingTau). */
    bool trackExactPages = false;

    /** Capture per-epoch telemetry (EpochSamples) and SuperFunction
     *  events. Observation only: results are bitwise identical with
     *  tracing off. */
    bool trace = false;

    auto operator<=>(const MachineParams &) const = default;
};

/**
 * A complete simulated system.
 *
 * The machine owns the cores, the hierarchy and the threads; the
 * scheduler is owned by the caller (it outlives the run) and is
 * attached at construction.
 */
class Machine
{
  public:
    /**
     * Build the machine.
     *
     * @param params    machine parameters (numCores is authoritative)
     * @param hier      hierarchy parameters, built on params.numCores
     *                  cores
     * @param suite     benchmark suite providing the SF catalog
     * @param workload  instantiated workload (threads + ambient IRQs)
     * @param scheduler technique under evaluation
     */
    Machine(const MachineParams &params, const HierarchyParams &hier,
            BenchmarkSuite &suite, const Workload &workload,
            Scheduler &scheduler);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Simulate for `duration` cycles. */
    void run(Cycles duration);

    /** Clear all statistics (call between warmup and measurement). */
    void resetStats();

    /** Snapshot of the metrics accumulated since the last reset. */
    SimMetrics metricsSnapshot() const;

    /** Idle core-cycles since the last reset (metricsSnapshot()'s
     *  idleCycles without copying the rest). */
    std::uint64_t idleCycles() const { return metrics_.idleCycles; }

    // ---- Accessors -------------------------------------------------

    unsigned numCores() const { return params_.numCores; }
    Cycles now() const { return now_; }
    const MachineParams &params() const { return params_; }
    MemHierarchy &hierarchy() { return *hierarchy_; }
    const MemHierarchy &hierarchy() const { return *hierarchy_; }
    Scheduler &sched() { return *scheduler_; }
    InterruptController &irqController() { return irq_ctrl_; }
    const SfTypeInfo &schedulerCode() const { return *sched_code_; }
    std::vector<std::unique_ptr<Thread>> &threads() { return threads_; }
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    /** Workload part count (event attribution). */
    unsigned numParts() const { return num_parts_; }

    // ---- Services used by cores and schedulers ---------------------

    /** Raise an interrupt: routed and queued at the target core. */
    void raiseIrq(const PendingIrq &irq);

    /**
     * Schedule a waiting SuperFunction to be woken after `delay`
     * cycles (FlexSC's deferred single-threaded resume).
     */
    void scheduleDelayedWakeup(SuperFunction *sf, Cycles delay);

    /** Account retired SuperFunction instructions. */
    void recordInsts(SuperFunction *sf, std::uint64_t insts);

    /** Account scheduler-routine instructions. */
    void recordOverheadInsts(std::uint64_t insts);

    /** Account one serviced interrupt and its dispatch latency. */
    void recordIrqServiced(Cycles latency);

    /** Account idle core-cycles. */
    void
    recordIdle(CoreId core, Cycles cycles)
    {
        metrics_.idleCycles += cycles;
        if (core < metrics_.perCoreIdleCycles.size())
            metrics_.perCoreIdleCycles[core] += cycles;
    }

    /** Dispatch bookkeeping: migration counting. */
    void noteDispatch(CoreId core, SuperFunction *sf);

    // ---- SuperFunction lifecycle (called by Core) -------------------

    /** Outcome of an application SuperFunction reaching its target. */
    enum class AppSliceOutcome
    {
        StartedSyscall, ///< child created; core must release
        ContinueApp,    ///< budget extended; keep running
    };

    AppSliceOutcome onAppSliceDone(Core &core, SuperFunction *sf);
    void onSyscallComplete(Core &core, SuperFunction *sf);
    void onIrqSfComplete(Core &core, SuperFunction *sf);
    void onBhComplete(Core &core, SuperFunction *sf);
    void onSfBlockPoint(Core &core, SuperFunction *sf);

    /** Build an interrupt-handler SuperFunction for a pending IRQ. */
    SuperFunction *makeIrqSf(CoreId core, const PendingIrq &irq);

    /** True when the scheduler wants heatmap maintenance. */
    bool heatmapsEnabled() const { return heatmaps_enabled_; }

    /** True when exact page tracking is on. */
    bool exactPagesEnabled() const { return params_.trackExactPages; }

    /** Record a touched code page for a type (exact tracking). */
    void
    recordExactPage(SfType type, Addr pfn)
    {
        exact_pages_[type.raw()].insert(pfn);
    }

    /** Exact code pages each superFuncType touched since the last
     *  epoch boundary (cleared after each boundary's sample). */
    const ExactPageSets &
    exactPagesByType() const
    {
        return exact_pages_;
    }

    /** All handler SuperFunctions ever allocated (diagnostics). */
    const SfArena &sfPool() const { return sf_arena_; }

    /** Record one SuperFunction event when tracing. */
    void
    trace(SfEventKind kind, CoreId core, const SuperFunction *sf)
    {
        if (epoch_trace_)
            epoch_trace_->record(
                SfEvent{now_, kind, core, sf->tid, sf->type, sf->id});
    }

  private:
    /** Charge the scheduler's per-epoch work (TAlloc) to core 0. */
    void chargeEpochWork();

    /** Capture one EpochSample at an epoch boundary (tracing). */
    void captureEpochSample();

    /**
     * Structural self-checks at an epoch boundary (checked builds;
     * see common/invariants.hh): instruction accounting balances,
     * idle cycles sum per core, the scheduler's queue bookkeeping
     * agrees with its queues, heatmap popcounts fit the register,
     * and in trace mode the per-core category and per-type
     * accumulators match the epoch's instruction delta. Called
     * before the sample capture resets the accumulators and
     * baseline.
     */
    void checkEpochInvariants() const;

    /** Reset the telemetry delta baseline to the current counters
     *  (all zero after a stats reset). */
    void resetEpochBaseline();

    SuperFunction *allocSf();
    void recycleSf(SuperFunction *sf);
    void armAmbientStream(const AmbientIrqInstance &inst);
    void countTransaction(Thread &thread);

    MachineParams params_;
    std::unique_ptr<MemHierarchy> hierarchy_;
    Scheduler *scheduler_;
    InterruptController irq_ctrl_;
    EventQueue events_;
    Rng rng_;
    SfIdAllocator id_alloc_;
    const SfTypeInfo *sched_code_;
    unsigned num_parts_ = 0;
    bool heatmaps_enabled_ = false;

    /** Hot per-core state, packed contiguously (SoA split; see
     *  Core::HotState). Sized once in the constructor and never
     *  resized: each Core holds a reference into it. Declared before
     *  cores_ so it outlives them. */
    std::vector<Core::HotState> core_hot_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<Thread>> threads_;
    /** Retired instructions per thread (measured window), indexed by
     *  ThreadId: the one per-thread counter the instruction-retire
     *  path touches, kept in a flat array instead of the Thread. */
    std::vector<std::uint64_t> thread_insts_;

    /** Arena behind allocSf(); the free list recycles slots so the
     *  steady state allocates nothing. */
    SfArena sf_arena_;
    std::vector<SuperFunction *> sf_free_;

    Cycles now_ = 0;
    Cycles next_epoch_ = 0;
    std::uint64_t epochs_done_ = 0;

    SimMetrics metrics_;

    /** Epoch telemetry (only allocated when params_.trace). The
     *  baseline holds the cumulative counter values at the last
     *  captured boundary, so each sample is a pure delta. */
    struct EpochBaseline
    {
        SimMetrics metrics;
        AccessCounts l1i;
        AccessCounts l2;
        Cycles startCycle = 0;
    };
    std::unique_ptr<EpochTrace> epoch_trace_;
    EpochBaseline epoch_base_;
    /** Per-core category instructions of the current epoch. */
    std::vector<EpochCoreSample> epoch_core_acc_;
    /** Per-type instructions of the current epoch (the sample's
     *  instsByType). */
    std::unordered_map<std::uint64_t, std::uint64_t> epoch_type_acc_;

    ExactPageSets exact_pages_;
};

} // namespace schedtask

#endif // SCHEDTASK_SIM_MACHINE_HH
