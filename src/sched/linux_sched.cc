#include "sched/linux_sched.hh"

#include "sim/machine.hh"

namespace schedtask
{

namespace
{

/** Queue-length difference that triggers a balancer migration. */
constexpr std::size_t imbalanceThreshold = 2;

} // namespace

CoreId
LinuxScheduler::choosePlacement(SuperFunction *sf, PlacementReason reason)
{
    (void)reason;
    // Everything executes where it was invoked: system calls on the
    // caller's core, resumed parents where the child finished,
    // bottom halves on the interrupted core. Fresh threads are
    // spread round-robin (fork balancing).
    if (sf->lastCore != invalidCore && sf->lastCore < numCores())
        return sf->lastCore;
    const CoreId core = next_spawn_core_;
    next_spawn_core_ = (next_spawn_core_ + 1) % numCores();
    return core;
}

SuperFunction *
LinuxScheduler::pickNext(CoreId core)
{
    return popHead(core);
}

void
LinuxScheduler::onEpoch()
{
    last_balance_moves_ = 0;
    // Load balancing: move work from the longest to the shortest
    // queue while the imbalance is significant. Linux balances
    // conservatively, so one pass per epoch suffices.
    for (unsigned iter = 0; iter < numCores(); ++iter) {
        CoreId busiest = 0, idlest = 0;
        for (CoreId c = 1; c < numCores(); ++c) {
            if (queueLen(c) > queueLen(busiest))
                busiest = c;
            if (queueLen(c) < queueLen(idlest))
                idlest = c;
        }
        if (queueLen(busiest)
                < queueLen(idlest) + imbalanceThreshold) {
            break;
        }
        SuperFunction *moved = takeBack(busiest);
        enqueue(idlest, moved);
        ++last_balance_moves_;
    }
}

SchedEpochReport
LinuxScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    report.reallocated = last_balance_moves_ > 0;
    report.placementMoves = last_balance_moves_;
    return report;
}

} // namespace schedtask

// Registry hook: called from the SchedulerRegistry constructor.

#include <memory>
#include <utility>

#include "sched/registry.hh"

namespace schedtask
{

void
registerLinuxTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "Linux";
    info.description = "per-core run queues, FCFS timeslicing and a "
                       "periodic load balancer (the paper's baseline)";
    info.isBaseline = true;
    info.paperOrder = 0;
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<LinuxScheduler>();
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
