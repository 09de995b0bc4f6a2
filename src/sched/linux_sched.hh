/**
 * @file
 * Baseline Linux-like scheduler.
 *
 * Models the behaviour the paper's baseline relies on: per-core
 * run queues with FCFS dispatch within a timeslice discipline,
 * handlers executing on the core that invoked them, round-robin
 * interrupt routing, and a periodic load balancer that migrates
 * threads only under significant imbalance — hence the near-zero
 * migration counts of Figure 10's baseline.
 */

#ifndef SCHEDTASK_SCHED_LINUX_SCHED_HH
#define SCHEDTASK_SCHED_LINUX_SCHED_HH

#include "sched/scheduler.hh"

namespace schedtask
{

class LinuxScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "Linux"; }

    void onEpoch() override;
    SuperFunction *pickNext(CoreId core) override;
    SchedEpochReport epochDecision() const override;

  protected:
    CoreId choosePlacement(SuperFunction *sf,
                           PlacementReason reason) override;

  private:
    CoreId next_spawn_core_ = 0;
    /** Load-balancer migrations at the last epoch boundary. */
    std::uint64_t last_balance_moves_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_LINUX_SCHED_HH
