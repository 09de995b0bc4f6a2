#include "sched/hts.hh"

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "sched/registry.hh"
#include "sim/machine.hh"

namespace schedtask
{

HtsScheduler::HtsScheduler(const HtsParams &params) : params_(params)
{
    SCHEDTASK_ASSERT(params_.bins >= 1, "hts needs at least one bin");
}

void
HtsScheduler::attach(Machine &machine)
{
    Scheduler::attach(machine);
    num_cores_ = machine.numCores();
    bins_.assign(params_.bins, {});
    last_bin_.assign(num_cores_, kNoBin);
    total_ = 0;
    cursor_ = 0;
    rr_irq_core_ = 0;
}

unsigned
HtsScheduler::binOf(SfType type) const
{
    // splitmix-style finalizer so related type ids spread over bins.
    std::uint64_t x = type.raw();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<unsigned>(x % bins_.size());
}

void
HtsScheduler::push(SuperFunction *sf)
{
    sf->state = SfState::Runnable;
    sf->enqueueCycle = machine_->now();
    bins_[binOf(sf->type)].push_back(sf);
    ++total_;
}

SuperFunction *
HtsScheduler::popFrom(unsigned bin, CoreId core)
{
    SuperFunction *sf = bins_[bin].front();
    bins_[bin].pop_front();
    last_bin_[core] = bin;
    --total_;
    return sf;
}

void
HtsScheduler::onSfStart(SuperFunction *sf)
{
    push(sf);
}

void
HtsScheduler::onSfResume(SuperFunction *parent,
                         const SuperFunction *completed_child)
{
    (void)completed_child;
    push(parent);
}

void
HtsScheduler::onSfBlock(SuperFunction *sf)
{
    // Waiting SuperFunctions live outside the hardware queue.
    (void)sf;
}

void
HtsScheduler::onSfWakeup(SuperFunction *sf)
{
    push(sf);
}

void
HtsScheduler::onSfYield(SuperFunction *sf)
{
    push(sf);
}

SuperFunction *
HtsScheduler::pickNext(CoreId core)
{
    if (total_ == 0)
        return nullptr;
    if (params_.affinity) {
        const unsigned hint = last_bin_[core];
        if (hint != kNoBin && !bins_[hint].empty())
            return popFrom(hint, core);
    }
    // The hardware's priority encoder over bin-occupancy bits; the
    // rotating cursor keeps bins fair across dispatches.
    for (unsigned i = 0; i < params_.bins; ++i) {
        const unsigned bin = (cursor_ + i) % params_.bins;
        if (!bins_[bin].empty()) {
            cursor_ = (bin + 1) % params_.bins;
            return popFrom(bin, core);
        }
    }
    return nullptr;
}

bool
HtsScheduler::hasRunnable(CoreId core) const
{
    // The queue is global: any core can dispatch any queued work.
    (void)core;
    return total_ != 0;
}

CoreId
HtsScheduler::routeIrq(IrqId irq)
{
    (void)irq;
    const CoreId core = rr_irq_core_;
    rr_irq_core_ = (rr_irq_core_ + 1) % num_cores_;
    return core;
}

SchedOverhead
HtsScheduler::overheadFor(SchedEvent event, const SuperFunction *sf) const
{
    (void)sf;
    // Every entry point is a hardware queue operation: no software
    // instructions; dispatch pays the queue's access latency.
    SchedOverhead oh;
    if (event == SchedEvent::Dispatch)
        oh.fixedCycles = params_.dispatchCycles;
    return oh;
}

SchedEpochReport
HtsScheduler::epochDecision() const
{
    SchedEpochReport report;
    report.queuedSfs = total_;
    report.allocTypes = 0;
    report.allocCores = 0;
    return report;
}

namespace
{

// Far past any hardware queue, and bins_ (one deque per bin) stays a
// few MB; 2^32 bins would need hundreds of GB.
constexpr std::uint64_t kMaxBins = 65536;

} // namespace

// Registry hook: called from SchedulerRegistry::ensureBuiltins().

void
registerHtsTechnique()
{
    SchedulerInfo info;
    info.name = "hts";
    info.description = "global hardware task queue with constant-time "
                       "dispatch and zero software overhead "
                       "(post-paper)";
    info.options = {
        {"bins",
         "hardware queue bins that SuperFunction types hash onto "
         "(default 64)"},
        {"affinity",
         "prefer the bin a core last dispatched from (default 1)"},
        {"dispatch_cycles",
         "flat hardware dispatch latency in cycles (default 8)"},
    };
    info.factory =
        [](const SchedulerFactoryContext &ctx) -> std::unique_ptr<Scheduler> {
        HtsParams p;
        p.bins = static_cast<unsigned>(
            ctx.options.getUnsigned("bins", p.bins, 1, kMaxBins));
        p.affinity = ctx.options.getBool("affinity", p.affinity);
        p.dispatchCycles = ctx.options.getUnsigned(
            "dispatch_cycles", p.dispatchCycles, 0, kMaxOptionCount);
        return std::make_unique<HtsScheduler>(p);
    };
    SchedulerRegistry::instance().registerScheduler(std::move(info));
}

} // namespace schedtask
