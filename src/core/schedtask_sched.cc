#include "core/schedtask_sched.hh"

#include <algorithm>
#include <iterator>

#include "common/invariants.hh"
#include "common/logging.hh"
#include "sim/machine.hh"

namespace schedtask
{

namespace
{

/** TAlloc cost charged once per epoch, in instructions. */
constexpr std::uint64_t tallocInsts = 2500;

} // namespace

const char *
stealPolicyName(StealPolicy policy)
{
    switch (policy) {
      case StealPolicy::None:
        return "Steal nothing";
      case StealPolicy::SameOnly:
        return "Steal same work only";
      case StealPolicy::SameAndSimilar:
        return "Steal similar work also";
      case StealPolicy::BusiestFirst:
        return "Steal from busiest";
    }
    return "unknown";
}

SchedTaskScheduler::SchedTaskScheduler(const SchedTaskParams &params)
    : params_(params)
{
}

void
SchedTaskScheduler::attach(Machine &machine)
{
    QueueScheduler::attach(machine);
    talloc_ = std::make_unique<TAlloc>(
        numCores(), machine.params().heatmapBits,
        params_.useExactOverlap, params_.demandSmoothing);
    core_stats_.assign(numCores(),
                       StatsTable(machine.params().heatmapBits));
    alloc_ = AllocTable{};
    overlap_ = OverlapTable{};
    last_scan_version_.assign(numCores(), ~std::uint64_t{0});
}

Cycles
SchedTaskScheduler::avgExecTimeOf(SfType type) const
{
    const StatsEntry *entry = talloc_->systemStats().find(type);
    return entry == nullptr ? 0 : entry->avgExecTime();
}

Cycles
SchedTaskScheduler::queueCost(SfType type) const
{
    return waitingCost(avgExecTimeOf(type));
}

CoreId
SchedTaskScheduler::choosePlacement(SuperFunction *sf,
                                    PlacementReason reason)
{
    (void)reason;
    const std::vector<CoreId> *cores = alloc_.coresFor(sf->type);
    if (cores == nullptr || cores->empty())
        return localCore(sf); // Algorithm 1: no allocation entry
    if (cores->size() == 1)
        return (*cores)[0];
    return selectLeastWaitingCore(*cores);
}

CoreId
SchedTaskScheduler::selectLeastWaitingCore(
    const std::vector<CoreId> &candidates) const
{
    SCHEDTASK_ASSERT(!candidates.empty(), "no candidate cores");
    CoreId best = candidates.front();
    Cycles best_wait = backlogs()[best];
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const Cycles w = backlogs()[candidates[i]];
        if (w < best_wait) {
            best = candidates[i];
            best_wait = w;
        }
    }
    return best;
}

SuperFunction *
SchedTaskScheduler::pickNext(CoreId core)
{
    SuperFunction *sf = popHead(core);
    if (sf != nullptr) {
        noteDispatchWait(core, sf);
        return sf;
    }
    if (params_.stealPolicy == StealPolicy::None)
        return nullptr;

    // Nothing was enqueued anywhere since this core's last failed
    // steal attempt: scanning again cannot succeed.
    if (last_scan_version_[core] == queueVersion())
        return nullptr;
    last_scan_version_[core] = queueVersion();

    if (params_.stealPolicy == StealPolicy::BusiestFirst) {
        auto stolen = stealFromBusiest(core);
        if (stolen.empty())
            return nullptr;
        SuperFunction *first = stolen.front();
        for (std::size_t i = 1; i < stolen.size(); ++i)
            enqueue(core, stolen[i]);
        noteDispatchWait(core, first);
        return first;
    }

    // Level 1: steal same work only.
    sf = stealSameWork(alloc_, core);
    if (sf != nullptr) {
        ++same_steals_;
        noteDispatchWait(core, sf);
        return sf;
    }
    if (params_.stealPolicy == StealPolicy::SameOnly)
        return nullptr;

    // Level 2: steal similar work also; half of the matching
    // SuperFunctions migrate to amortize the cold i-cache.
    auto stolen = stealSimilarWork(alloc_, overlap_, core);
    if (stolen.empty())
        return nullptr;
    ++similar_steals_;
    SuperFunction *first = stolen.front();
    for (std::size_t i = 1; i < stolen.size(); ++i)
        enqueue(core, stolen[i]);
    noteDispatchWait(core, first);
    return first;
}

SuperFunction *
SchedTaskScheduler::stealSameWork(const AllocTable &alloc, CoreId thief)
{
    const std::vector<SfType> my_types = alloc.typesOnCore(thief);
    // Fast reject: none of the local types is queued anywhere.
    if (std::none_of(my_types.begin(), my_types.end(),
                     [this](SfType t) { return queuedCountOf(t) > 0; }))
        return nullptr;
    // typesOnCore() is sorted by raw value.
    const auto mine = [&my_types](const SuperFunction *sf) {
        return std::binary_search(
            my_types.begin(), my_types.end(), sf->type,
            [](SfType a, SfType b) { return a.raw() < b.raw(); });
    };

    // Given multiple victims, prefer the one with the maximum
    // waiting time (Section 5.3).
    CoreId victim = invalidCore;
    Cycles victim_wait = 0;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (c == thief)
            continue;
        const auto &q = queueOf(c);
        if (std::none_of(q.begin(), q.end(), mine))
            continue;
        const Cycles w = backlogs()[c];
        if (victim == invalidCore || w > victim_wait) {
            victim = c;
            victim_wait = w;
        }
    }
    if (victim == invalidCore)
        return nullptr;
    SuperFunction *sf = nullptr;
    takeMatching(victim, 1, mine, &sf);
    return sf;
}

std::vector<SuperFunction *>
SchedTaskScheduler::stealSimilarWork(const AllocTable &alloc,
                                     const OverlapTable &overlap,
                                     CoreId thief)
{
    const std::vector<SfType> my_types = alloc.typesOnCore(thief);
    for (const OverlapPeer &peer : overlap.mergedPeers(my_types)) {
        // Fast reject before scanning every queue.
        if (queuedCountOf(peer.type) == 0)
            continue;
        const auto same_type = [&peer](const SuperFunction *sf) {
            return sf->type == peer.type;
        };
        for (CoreId c = 0; c < numCores(); ++c) {
            if (c == thief)
                continue;
            const auto &q = queueOf(c);
            const auto matches = static_cast<std::size_t>(
                std::count_if(q.begin(), q.end(), same_type));
            if (matches == 0)
                continue;
            // Steal half of them (at least one) to amortize the
            // initially cold i-cache (Section 5.3).
            const std::size_t to_steal =
                std::max<std::size_t>(matches / 2, 1);
            std::vector<SuperFunction *> stolen;
            stolen.reserve(to_steal);
            takeMatching(c, to_steal, same_type,
                         std::back_inserter(stolen));
            return stolen;
        }
    }
    return {};
}

std::vector<SuperFunction *>
SchedTaskScheduler::stealFromBusiest(CoreId thief)
{
    CoreId victim = invalidCore;
    Cycles victim_wait = 0;
    for (CoreId c = 0; c < numCores(); ++c) {
        if (c == thief || queueOf(c).empty())
            continue;
        const Cycles w = backlogs()[c];
        if (victim == invalidCore || w > victim_wait) {
            victim = c;
            victim_wait = w;
        }
    }
    if (victim == invalidCore)
        return {};
    std::vector<SuperFunction *> stolen(
        std::max<std::size_t>(queueOf(victim).size() / 2, 1));
    for (SuperFunction *&sf : stolen)
        sf = takeBack(victim);
    return stolen;
}

void
SchedTaskScheduler::noteDispatchWait(CoreId core, SuperFunction *sf)
{
    const Cycles now = machine_->now();
    const Cycles wait =
        now > sf->enqueueCycle ? now - sf->enqueueCycle : 0;
    core_stats_[core].recordWait(sf->type, sf->info, wait);
}

CoreId
SchedTaskScheduler::routeIrq(IrqId irq)
{
    // Until the first allocation exists, interrupts keep the
    // distribution the booting system had (round-robin, as under
    // irqbalance); concentrating them on core 0 before any stats
    // exist would make the first epoch's measurements throttle
    // interrupt/bottom-half work to one core's throughput.
    if (alloc_.empty())
        return QueueScheduler::routeIrq(irq);
    // Section 5.2: interrupts whose IDs are not present in the
    // stats table are mapped to core 0 by default. Known vectors
    // are routed by the interrupt controller (programmed in
    // onEpoch) before this fallback is consulted.
    return 0;
}

void
SchedTaskScheduler::onSliceEnd(CoreId core, const SuperFunction *sf,
                               Cycles elapsed, std::uint64_t insts,
                               const PageHeatmap &heatmap)
{
    core_stats_[core].record(sf->type, sf->info, elapsed, insts,
                             heatmap);
}

void
SchedTaskScheduler::onEpoch()
{
    // The backlogs were maintained incrementally since the last
    // rebuild; prove it before TAlloc changes the weights.
    if constexpr (checkedBuild)
        checkInvariants();

    // Detect starvation: idle core-cycles accumulated during the
    // last epoch. Severe per-type queue waits become a demand signal
    // only when cores idled (otherwise waiting in a saturated queue
    // is normal and the signal would oscillate the allocation); this
    // rescues workloads whose bottleneck stage is starved by short,
    // frequent re-entries.
    const std::uint64_t idle_now = machine_->idleCycles();
    const std::uint64_t idle_delta =
        idle_now >= last_idle_cycles_ ? idle_now - last_idle_cycles_
                                      : idle_now;
    last_idle_cycles_ = idle_now;
    const double idle_frac = static_cast<double>(idle_delta)
        / (static_cast<double>(machine_->params().epochCycles)
           * numCores());
    const bool starved = idle_frac > 0.05;

    TAllocResult result = talloc_->run(
        core_stats_, alloc_,
        [this](SfType t) { return queuedCountOf(t); }, starved);
    // TAlloc just replaced the stats table queueCost() reads, the
    // only event that changes a queued SuperFunction's weight.
    rebuildBacklogs();
    overlap_ = std::move(result.overlap);
    last_reallocated_ = result.reallocated;
    last_placement_moves_ = 0;
    if (!result.reallocated)
        return;
    alloc_ = std::move(result.alloc);

    if (params_.routeInterrupts) {
        machine_->irqController().clearRoutes();
        for (const IrqRoute &route : result.irqRoutes)
            machine_->irqController().programRoute(route.irq,
                                                   route.core);
    }

    // Transfer queued threads to the cores their types now map to
    // (Section 5.2 does this transfer once per re-allocation to
    // bound migration cost).
    last_placement_moves_ = totalQueued();
    replaceQueuedWork();
}

SchedEpochReport
SchedTaskScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    report.cosineSimilarity = talloc_->lastSimilarity();
    report.reallocated = last_reallocated_;
    report.placementMoves = last_placement_moves_;
    report.allocTypes = static_cast<unsigned>(alloc_.size());
    report.workSteals = same_steals_ + similar_steals_;

    report.allocCores = coveredCores(alloc_.rows());

    for (const auto &[raw, entry] : talloc_->systemStats().rows()) {
        report.heatmapSetBits += entry.heatmap.popcount();
        for (const OverlapPeer &peer :
             overlap_.peersOf(SfType::fromRaw(raw)))
            report.heatmapOverlap += peer.overlap;
    }
    if (machine_->exactPagesEnabled())
        report.rankingTau = rankingTau(talloc_->systemStats(), overlap_,
                                       machine_->exactPagesByType());
    return report;
}

void
SchedTaskScheduler::replaceQueuedWork()
{
    for (SuperFunction *sf : drainAllQueues())
        enqueue(choosePlacement(sf, PlacementReason::NewSf), sf);
}

SchedOverhead
SchedTaskScheduler::overheadFor(SchedEvent event,
                                const SuperFunction *sf) const
{
    if (event == SchedEvent::Epoch) {
        SchedOverhead oh;
        oh.insts = tallocInsts;
        oh.code = machine_ != nullptr ? &machine_->schedulerCode()
                                      : nullptr;
        return oh;
    }
    return Scheduler::overheadFor(event, sf);
}

} // namespace schedtask

// Registry hook: called from the SchedulerRegistry constructor.

#include <memory>
#include <utility>

namespace schedtask
{

void
registerSchedTaskTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "SchedTask";
    info.description = "hardware-assisted TAlloc + TMigrate task "
                       "scheduler (this paper)";
    info.paperOrder = 5;
    info.factory = [](const SchedTaskParams &params) {
        return std::make_unique<SchedTaskScheduler>(params);
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
