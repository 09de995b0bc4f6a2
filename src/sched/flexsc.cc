#include "sched/flexsc.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "sim/thread.hh"

namespace schedtask
{

namespace
{

/** Kernel instructions of one Linux-scheduler round trip. */
constexpr std::uint64_t linuxSchedulerInsts = 4500;
/** Cycles until a yielded single-threaded app is re-run. */
constexpr Cycles yieldQuantum = 60000;
/** Minimum syscall cores. */
constexpr unsigned minSyscallCores = 1;

} // namespace

void
FlexSCScheduler::configureMachine(MachineParams &params) const
{
    // The split keeps at least one syscall and one application core
    // (onEpoch clamps the syscall share to [min, numCores - 1]).
    if (params.numCores < minSyscallCores + 1) {
        throw TechniqueError(
            "FlexSC needs at least "
            + std::to_string(minSyscallCores + 1)
            + " cores (system call and application cores), got "
            + std::to_string(params.numCores));
    }
}

void
FlexSCScheduler::attach(Machine &machine)
{
    QueueScheduler::attach(machine);
    syscall_cores_ = std::max(minSyscallCores, numCores() / 4);
    syscall_time_ = 0;
    total_time_ = 0;
}

bool
FlexSCScheduler::isSingleThreadedSyscall(const SuperFunction *sf)
{
    return sf->info->category == SfCategory::SystemCall
        && sf->thread != nullptr
        && sf->thread->spec().singleThreadedApp;
}

CoreId
FlexSCScheduler::choosePlacement(SuperFunction *sf,
                                 PlacementReason reason)
{
    (void)reason;
    const CoreId sys_base = syscallBase();

    switch (sf->info->category) {
      case SfCategory::SystemCall:
        // All system calls run on the syscall cores, least-loaded
        // first; FlexSC does not group them by type.
        return sys_base
            + (leastLoaded(sys_base, numCores() - 1) - sys_base);
      case SfCategory::Application:
        // Aggressive balancing: always the least-loaded app core.
        return sys_base > 0 ? leastLoaded(0, sys_base - 1)
                            : leastLoaded(0, numCores() - 1);
      case SfCategory::Interrupt:
      case SfCategory::BottomHalf:
      default:
        // Unmanaged: stay where the interrupt landed.
        if (sf->lastCore != invalidCore && sf->lastCore < numCores())
            return sf->lastCore;
        return 0;
    }
}

void
FlexSCScheduler::onSfResume(SuperFunction *parent,
                            const SuperFunction *completed_child)
{
    // A single-threaded application yielded to the Linux scheduler
    // when it issued the call; it becomes runnable again only at
    // the next scheduling quantum (Section 2/6.1 discussion).
    if (completed_child != nullptr
            && isSingleThreadedSyscall(completed_child)) {
        machine_->scheduleDelayedWakeup(parent, yieldQuantum);
        return;
    }
    QueueScheduler::onSfResume(parent, completed_child);
}

void
FlexSCScheduler::onSliceEnd(CoreId core, const SuperFunction *sf,
                            Cycles elapsed, std::uint64_t insts,
                            const PageHeatmap &heatmap)
{
    (void)core;
    (void)insts;
    (void)heatmap;
    total_time_ += elapsed;
    if (sf->info->category == SfCategory::SystemCall)
        syscall_time_ += elapsed;
}

void
FlexSCScheduler::onEpoch()
{
    const unsigned before = syscall_cores_;
    // Adapt the core split to the syscall load observed last epoch.
    if (total_time_ > 0) {
        const double frac = static_cast<double>(syscall_time_)
            / static_cast<double>(total_time_);
        const auto want = static_cast<unsigned>(
            std::lround(frac * numCores()));
        syscall_cores_ = std::clamp(want, minSyscallCores,
                                    numCores() - 1);
    }

    // Queue-imbalance balancing (the FlexSC paper migrates work
    // between core groups when run-queue sizes diverge): shift the
    // partition one core toward the side with the longer queues.
    std::size_t sys_q = 0, app_q = 0;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (c >= syscallBase())
            sys_q += queueLen(c);
        else
            app_q += queueLen(c);
    }
    if (sys_q > app_q + 4) {
        syscall_cores_ = std::min(syscall_cores_ + 1, numCores() - 1);
    } else if (app_q > sys_q + 4) {
        syscall_cores_ =
            std::max(syscall_cores_ - 1, minSyscallCores);
    }

    last_repartitioned_ = syscall_cores_ != before;
    syscall_time_ = 0;
    total_time_ = 0;
}

SchedEpochReport
FlexSCScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    // The partition is the decision: one managed class (system
    // calls) served by the dedicated top-of-range cores.
    report.allocTypes = 1;
    report.allocCores = syscall_cores_;
    report.reallocated = last_repartitioned_;
    return report;
}

SchedOverhead
FlexSCScheduler::overheadFor(SchedEvent event,
                             const SuperFunction *sf) const
{
    // Table 3 evaluates FlexSC with a zero-cycle user-level
    // scheduler — except that a single-threaded process issuing a
    // syscall runs the full Linux scheduler on the application
    // core before yielding (the Section 2 discussion).
    SchedOverhead oh;
    oh.code = machine_ != nullptr ? &machine_->schedulerCode()
                                  : nullptr;
    if (event == SchedEvent::Start && sf != nullptr
            && isSingleThreadedSyscall(sf)) {
        oh.insts = linuxSchedulerInsts;
    }
    return oh;
}

} // namespace schedtask

// Registry hook: called from the SchedulerRegistry constructor.

#include <memory>
#include <utility>

#include "sched/registry.hh"

namespace schedtask
{

void
registerFlexScTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "FlexSC";
    info.description = "exception-less syscalls on dedicated syscall "
                       "cores (Soares & Stumm, OSDI 2010)";
    info.paperOrder = 2;
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<FlexSCScheduler>();
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
