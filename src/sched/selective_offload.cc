#include "sched/selective_offload.hh"

#include "sim/machine.hh"
#include "sim/thread.hh"

namespace schedtask
{

namespace
{

/** Offload threshold, in instructions (paper Table 3: 100). */
constexpr std::uint64_t offloadThresholdInsts = 100;

} // namespace

bool
SelectiveOffloadScheduler::isAdmitted(const SuperFunction *sf) const
{
    // One application thread per application core, shared fairly
    // between the workload's tenants (the appendix starts bags by
    // "allocating an equal number of cores for each benchmark"):
    // each part may bind at most appCores/numParts threads; all
    // surplus threads wait forever (no load balancing).
    if (sf->thread == nullptr)
        return false;
    const unsigned parts =
        std::max(1u, machine_ != nullptr ? machine_->numParts() : 1u);
    const unsigned quota = std::max(1u, osBase() / parts);
    return sf->thread->spec().indexInPart < quota;
}

SuperFunction *
SelectiveOffloadScheduler::pickNext(CoreId core)
{
    if (core >= osBase())
        return popHead(core); // OS cores run whatever is queued
    // Application core: only its bound thread may run.
    SuperFunction *admitted = nullptr;
    takeMatching(
        core, 1,
        [this](const SuperFunction *sf) { return isAdmitted(sf); },
        &admitted);
    return admitted;
}

CoreId
SelectiveOffloadScheduler::choosePlacement(SuperFunction *sf,
                                           PlacementReason reason)
{
    (void)reason;
    const CoreId os_base = osBase();

    if (sf->info->category == SfCategory::Application) {
        // Pin each thread to a home application core; no stealing.
        if (sf->thread != nullptr)
            return sf->thread->id() % os_base;
        return next_spawn_core_++ % os_base;
    }

    // OS SuperFunction. Short system calls stay on the invoking
    // application core (not worth the transfer); everything else
    // goes to the invoking application core's *fixed partner* OS
    // core. The design has no load balancing (the paper's stated
    // weakness): a hot partner core backs up while other OS cores
    // idle, and each OS core still executes every handler type
    // (i-cache and d-cache thrash on the OS side).
    if (sf->info->category == SfCategory::SystemCall
            && sf->phase != nullptr
            && sf->phase->meanInsts <= offloadThresholdInsts
            && sf->lastCore != invalidCore && sf->lastCore < os_base) {
        return sf->lastCore;
    }
    if (sf->thread != nullptr)
        return os_base + sf->thread->id() % os_base;
    if (sf->lastCore != invalidCore)
        return os_base + sf->lastCore % os_base;
    return os_base;
}

CoreId
SelectiveOffloadScheduler::routeIrq(IrqId irq)
{
    (void)irq;
    // Interrupts are serviced by the OS half, round-robin.
    const CoreId core = osBase() + rr_os_core_;
    rr_os_core_ = (rr_os_core_ + 1) % (numCores() - osBase());
    return core;
}

SchedEpochReport
SelectiveOffloadScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    // The partition is static: long system calls, interrupt
    // handlers and bottom halves run on the OS half, applications
    // on the other; no per-epoch decision ever changes it.
    report.allocTypes = 3;
    report.allocCores = numCores() - osBase();
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
registerSelectiveOffloadTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "SelectiveOffload";
    info.description = "app/OS core split with per-core partner "
                       "offloading (Nellans et al.); uses 2x cores";
    info.paperOrder = 1;
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<SelectiveOffloadScheduler>();
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
