#include "sched/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/machine.hh"

namespace schedtask
{

void
Scheduler::attach(Machine &machine)
{
    machine_ = &machine;
}

SchedOverhead
Scheduler::overheadFor(SchedEvent event, const SuperFunction *sf) const
{
    (void)sf;
    // Calibrated so that scheduler routines account for ~3% of
    // execution, the figure the paper reports for both the Linux
    // scheduler and TMigrate (Section 6.1, "Other statistics").
    SchedOverhead oh;
    oh.code = machine_ != nullptr ? &machine_->schedulerCode() : nullptr;
    switch (event) {
      case SchedEvent::Dispatch:
        oh.insts = 50;
        break;
      case SchedEvent::Start:
      case SchedEvent::Complete:
        oh.insts = 25;
        break;
      case SchedEvent::Block:
      case SchedEvent::Wakeup:
      case SchedEvent::Yield:
        oh.insts = 25;
        break;
      case SchedEvent::Epoch:
        oh.insts = 0;
        break;
    }
    return oh;
}

void
QueueScheduler::attach(Machine &machine)
{
    Scheduler::attach(machine);
    num_cores_ = machine.numCores();
    queues_.assign(num_cores_, {});
    backlog_.assign(num_cores_, 0);
    rr_irq_core_ = 0;
}

void
QueueScheduler::onSfStart(SuperFunction *sf)
{
    enqueue(choosePlacement(sf, PlacementReason::NewSf), sf);
}

void
QueueScheduler::onSfResume(SuperFunction *parent,
                           const SuperFunction *completed_child)
{
    (void)completed_child;
    enqueue(choosePlacement(parent, PlacementReason::Resume), parent);
}

void
QueueScheduler::onSfBlock(SuperFunction *sf)
{
    // Waiting SuperFunctions live outside the queues; nothing to do
    // beyond the state change the Machine already performed.
    (void)sf;
}

void
QueueScheduler::onSfWakeup(SuperFunction *sf)
{
    enqueue(choosePlacement(sf, PlacementReason::Wakeup), sf);
}

void
QueueScheduler::onSfYield(SuperFunction *sf)
{
    enqueue(choosePlacement(sf, PlacementReason::Yield), sf);
}

SuperFunction *
QueueScheduler::pickNext(CoreId core)
{
    return popHead(core);
}

bool
QueueScheduler::hasRunnable(CoreId core) const
{
    return !queues_[core].empty();
}

CoreId
QueueScheduler::routeIrq(IrqId irq)
{
    (void)irq;
    // Default: distribute vectors round-robin, the behaviour of an
    // unprogrammed IO-APIC under irqbalance.
    const CoreId core = rr_irq_core_;
    rr_irq_core_ = (rr_irq_core_ + 1) % num_cores_;
    return core;
}

SchedEpochReport
QueueScheduler::epochDecision() const
{
    SchedEpochReport report;
    report.queuedSfs = totalQueued();
    return report;
}

void
QueueScheduler::enqueue(CoreId core, SuperFunction *sf)
{
    SCHEDTASK_ASSERT(core < num_cores_, "enqueue to invalid core ", core);
    sf->coreId = core;
    sf->state = SfState::Runnable;
    sf->enqueueCycle = machine_->now();
    queues_[core].push_back(sf);
    backlog_[core] += queueCost(sf->type);
    ++queue_version_;
    ++queued_by_type_[sf->type.raw()];
}

SuperFunction *
QueueScheduler::popHead(CoreId core)
{
    auto &q = queues_[core];
    if (q.empty())
        return nullptr;
    SuperFunction *sf = q.front();
    q.pop_front();
    noteQueueRemoval(sf);
    return sf;
}

SuperFunction *
QueueScheduler::takeBack(CoreId core)
{
    auto &q = queues_[core];
    if (q.empty())
        return nullptr;
    SuperFunction *sf = q.back();
    q.pop_back();
    noteQueueRemoval(sf);
    return sf;
}

std::vector<SuperFunction *>
QueueScheduler::drainAllQueues()
{
    std::vector<SuperFunction *> drained;
    for (auto &q : queues_) {
        drained.insert(drained.end(), q.begin(), q.end());
        q.clear();
    }
    backlog_.assign(num_cores_, 0);
    queued_by_type_.clear();
    return drained;
}

std::size_t
QueueScheduler::queuedCountOf(SfType type) const
{
    auto it = queued_by_type_.find(type.raw());
    return it == queued_by_type_.end() ? 0 : it->second;
}

void
QueueScheduler::noteQueueRemoval(const SuperFunction *sf)
{
    auto it = queued_by_type_.find(sf->type.raw());
    SCHEDTASK_ASSERT(it != queued_by_type_.end() && it->second > 0,
                     "queue accounting underflow");
    if (--it->second == 0)
        queued_by_type_.erase(it);
    backlog_[sf->coreId] -= queueCost(sf->type);
}

Cycles
QueueScheduler::scanBacklog(CoreId core) const
{
    Cycles total = 0;
    for (const SuperFunction *sf : queues_[core])
        total += queueCost(sf->type);
    return total;
}

void
QueueScheduler::rebuildBacklogs()
{
    for (CoreId c = 0; c < num_cores_; ++c)
        backlog_[c] = scanBacklog(c);
}

void
QueueScheduler::checkInvariants() const
{
    for (CoreId c = 0; c < num_cores_; ++c) {
        // noteQueueRemoval() debits sf->coreId, so it must name the
        // queue the SuperFunction actually sits in.
        for (const SuperFunction *sf : queues_[c])
            SCHEDTASK_ASSERT(sf->coreId == c, "queued SF records core ",
                             sf->coreId, " but sits on core ", c);
        const Cycles scan = scanBacklog(c);
        SCHEDTASK_ASSERT(backlog_[c] == scan, "core ", c, " backlog ",
                         backlog_[c], " != queue scan ", scan);
    }
}

std::size_t
QueueScheduler::queueLen(CoreId core) const
{
    return queues_[core].size();
}

std::size_t
QueueScheduler::totalQueued() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

CoreId
QueueScheduler::leastLoaded(CoreId first, CoreId last) const
{
    SCHEDTASK_ASSERT(first <= last && last < num_cores_,
                     "bad leastLoaded range");
    CoreId best = first;
    std::size_t best_len = queues_[first].size();
    for (CoreId c = first + 1; c <= last; ++c) {
        if (queues_[c].size() < best_len) {
            best = c;
            best_len = queues_[c].size();
        }
    }
    return best;
}

CoreId
QueueScheduler::localCore(const SuperFunction *sf) const
{
    if (sf->lastCore != invalidCore && sf->lastCore < num_cores_)
        return sf->lastCore;
    return sf->tid == invalidThread
        ? 0 : static_cast<CoreId>(sf->tid % num_cores_);
}

unsigned
QueueScheduler::coveredCores(
    const std::unordered_map<std::uint64_t, std::vector<CoreId>>
        &core_lists) const
{
    std::vector<bool> used(num_cores_, false);
    for (const auto &[key, cores] : core_lists) {
        for (CoreId c : cores) {
            if (c < used.size())
                used[c] = true;
        }
    }
    return static_cast<unsigned>(
        std::count(used.begin(), used.end(), true));
}

const std::deque<SuperFunction *> &
QueueScheduler::queueOf(CoreId core) const
{
    return queues_[core];
}

} // namespace schedtask
