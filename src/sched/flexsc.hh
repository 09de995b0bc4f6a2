/**
 * @file
 * FlexSC baseline (Soares & Stumm, OSDI 2010).
 *
 * Exception-less system calls: system-call handlers execute on
 * dedicated syscall cores while application threads run on the
 * remaining cores under a (zero-cost, per the paper's Table 3)
 * user-level scheduler. The syscall/app core split adapts to the
 * observed syscall load each epoch. Two behaviours the paper
 * hinges on are modelled explicitly:
 *
 *  - a *single-threaded* application has no other thread for the
 *    user-level scheduler to run, so each system call executes the
 *    Linux scheduler path (thousands of kernel instructions) and
 *    yields; the thread resumes only after a scheduling quantum —
 *    the source of FlexSC's -99% single-threaded performance;
 *  - application SuperFunctions are aggressively re-balanced onto
 *    the least-loaded application core, keeping idleness near zero
 *    at the price of extra migrations and d-cache locality.
 *
 * Interrupts and bottom halves are unmanaged (round-robin routing,
 * bottom halves on the interrupted core), so i-cache pollution from
 * asynchronous OS work remains.
 */

#ifndef SCHEDTASK_SCHED_FLEXSC_HH
#define SCHEDTASK_SCHED_FLEXSC_HH

#include "sched/scheduler.hh"

namespace schedtask
{

class FlexSCScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "FlexSC"; }

    /** Rejects machines the core split cannot partition: fewer than
     *  two cores (one syscall and one application core). */
    void configureMachine(MachineParams &params) const override;
    void attach(Machine &machine) override;
    void onSfResume(SuperFunction *parent,
                    const SuperFunction *completed_child) override;
    void onEpoch() override;
    void onSliceEnd(CoreId core, const SuperFunction *sf, Cycles elapsed,
                    std::uint64_t insts,
                    const PageHeatmap &heatmap) override;
    SchedOverhead overheadFor(SchedEvent event,
                              const SuperFunction *sf) const override;
    SchedEpochReport epochDecision() const override;

    /** Current number of syscall cores (tests). */
    unsigned syscallCores() const { return syscall_cores_; }

  protected:
    CoreId choosePlacement(SuperFunction *sf,
                           PlacementReason reason) override;

  private:
    /** First syscall core index (they occupy the top of the range). */
    CoreId syscallBase() const { return numCores() - syscall_cores_; }

    static bool isSingleThreadedSyscall(const SuperFunction *sf);

    unsigned syscall_cores_ = 1;
    Cycles syscall_time_ = 0;
    Cycles total_time_ = 0;
    /** Did the last epoch boundary move the core partition? */
    bool last_repartitioned_ = false;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_FLEXSC_HH
