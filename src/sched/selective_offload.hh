/**
 * @file
 * SelectiveOffload baseline (Nellans et al.).
 *
 * Uses twice the cores of the baseline system: the first half are
 * application cores, the second half OS cores. Each application
 * core executes exactly ONE bound application thread (the paper:
 * "executes only one application thread on each application core");
 * surplus threads are never admitted, because the design "lacks a
 * load balancing algorithm — even if an application core is idle,
 * it cannot execute applications that are waiting to execute on
 * other application cores". System calls whose expected run length
 * exceeds 100 instructions, interrupt handlers and bottom halves
 * execute on the invoking core's fixed partner OS core, with no
 * per-type specialization.
 *
 * This reproduces the paper's signature behaviour: the best
 * application i-cache hit rate, ~50% idle cores at every workload
 * scale, workload-independent throughput (Table 4's identical rows
 * for 1X..8X), and OS-side i-cache/d-cache thrash.
 */

#ifndef SCHEDTASK_SCHED_SELECTIVE_OFFLOAD_HH
#define SCHEDTASK_SCHED_SELECTIVE_OFFLOAD_HH

#include "sched/scheduler.hh"

namespace schedtask
{

class SelectiveOffloadScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "SelectiveOffload"; }

    unsigned
    coresRequired(unsigned baseline_cores) const override
    {
        return 2 * baseline_cores;
    }

    CoreId routeIrq(IrqId irq) override;
    SuperFunction *pickNext(CoreId core) override;
    SchedEpochReport epochDecision() const override;

  protected:
    CoreId choosePlacement(SuperFunction *sf,
                           PlacementReason reason) override;

  private:
    /** True when this thread is the one bound to an app core. */
    bool isAdmitted(const SuperFunction *sf) const;

  private:
    /** First OS core index. */
    CoreId osBase() const { return numCores() / 2; }

    CoreId next_spawn_core_ = 0;
    CoreId rr_os_core_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_SELECTIVE_OFFLOAD_HH
