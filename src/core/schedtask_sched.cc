#include "core/schedtask_sched.hh"

#include "common/invariants.hh"
#include "common/logging.hh"
#include "sim/machine.hh"

namespace schedtask
{

SchedTaskScheduler::SchedTaskScheduler(const SchedTaskParams &params)
    : params_(params)
{
}

void
SchedTaskScheduler::attach(Machine &machine)
{
    QueueScheduler::attach(machine);
    TAllocParams tp;
    tp.reallocationGuard = params_.reallocationGuard;
    tp.useExactOverlap = params_.useExactOverlap;
    tp.demandSmoothing = params_.demandSmoothing;
    talloc_ = std::make_unique<TAlloc>(numCores(),
                                       machine.params().heatmapBits, tp);
    core_stats_.assign(numCores(),
                       StatsTable(machine.params().heatmapBits));
    alloc_ = AllocTable{};
    overlap_ = OverlapTable{};
    last_scan_version_.assign(numCores(), ~std::uint64_t{0});

    // The queue and backlog arrays never reallocate after attach, so
    // one view serves every placement and steal.
    view_.queues = &allQueues();
    view_.backlog = &backlogs();
    view_.queuedCount = [this](SfType t) { return queuedCountOf(t); };
    view_.onStolen = [this](SuperFunction *sf) { noteQueueRemoval(sf); };
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
    if (cores == nullptr || cores->empty()) {
        // Algorithm 1: no allocation entry -> execute locally.
        if (sf->lastCore != invalidCore && sf->lastCore < numCores())
            return sf->lastCore;
        return sf->tid == invalidThread
            ? 0 : static_cast<CoreId>(sf->tid % numCores());
    }
    if (cores->size() == 1)
        return (*cores)[0];
    return selectLeastWaitingCore(view_, *cores);
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
        auto stolen = stealFromBusiest(view_, core);
        if (stolen.empty())
            return nullptr;
        SuperFunction *first = stolen.front();
        for (std::size_t i = 1; i < stolen.size(); ++i)
            enqueue(core, stolen[i]);
        noteDispatchWait(core, first);
        return first;
    }

    // Level 1: steal same work only.
    sf = stealSameWork(view_, alloc_, core);
    if (sf != nullptr) {
        ++same_steals_;
        noteDispatchWait(core, sf);
        return sf;
    }
    if (params_.stealPolicy == StealPolicy::SameOnly)
        return nullptr;

    // Level 2: steal similar work also; half of the matching
    // SuperFunctions migrate to amortize the cold i-cache.
    auto stolen = stealSimilarWork(view_, alloc_, overlap_, core);
    if (stolen.empty())
        return nullptr;
    ++similar_steals_;
    SuperFunction *first = stolen.front();
    for (std::size_t i = 1; i < stolen.size(); ++i)
        enqueue(core, stolen[i]);
    noteDispatchWait(core, first);
    return first;
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
    // last epoch. Queue waits only become a demand signal when
    // cores idled (otherwise waiting in a saturated queue is
    // normal and the signal would oscillate the allocation).
    const std::uint64_t idle_now = machine_->idleCycles();
    const std::uint64_t idle_delta =
        idle_now >= last_idle_cycles_ ? idle_now - last_idle_cycles_
                                      : idle_now;
    last_idle_cycles_ = idle_now;
    const double idle_frac = static_cast<double>(idle_delta)
        / (static_cast<double>(machine_->params().epochCycles)
           * numCores());
    const bool starved = params_.useWaitSignal && idle_frac > 0.05;

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

    std::vector<bool> used(numCores(), false);
    for (SfType type : alloc_.types()) {
        if (const std::vector<CoreId> *cores = alloc_.coresFor(type)) {
            for (CoreId c : *cores) {
                if (c < used.size())
                    used[c] = true;
            }
        }
    }
    for (bool u : used)
        report.allocCores += u ? 1 : 0;

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
        oh.insts = params_.tallocInsts;
        oh.code = machine_ != nullptr ? &machine_->schedulerCode()
                                      : nullptr;
        return oh;
    }
    return Scheduler::overheadFor(event, sf);
}

} // namespace schedtask

// Registry hook: called from SchedulerRegistry::ensureBuiltins().

#include <memory>
#include <utility>

namespace schedtask
{

namespace
{

std::vector<SchedulerOptionSpec>
schedTaskOptionSpecs()
{
    return {
        {"steal",
         "work-stealing policy: none, same, similar, busiest "
         "(default similar)"},
        {"realloc_guard",
         "cosine-similarity guard for re-allocation (default 0.98)"},
        {"route_irqs",
         "program the interrupt controller from the allocation "
         "(default 1)"},
        {"exact_overlap",
         "rank cores by exact footprint overlap instead of heatmaps "
         "(default 0)"},
        {"talloc_insts",
         "TAlloc cost per epoch, in instructions (default 2500)"},
        {"demand_smoothing",
         "EMA weight on each new epoch's demand share (default 0.5)"},
        {"wait_signal",
         "feed severe per-type queue waits into the demand weights "
         "(default 1)"},
    };
}

/** Apply registry options onto SchedTask params; throws
 *  SchedulerOptionError on bad values (keys are validated upstream). */
void
applySchedTaskOptions(SchedTaskParams &params,
                      const SchedulerOptions &options)
{
    if (options.has("steal")) {
        const std::string policy = options.getString("steal", "");
        if (policy == "none")
            params.stealPolicy = StealPolicy::None;
        else if (policy == "same")
            params.stealPolicy = StealPolicy::SameOnly;
        else if (policy == "similar")
            params.stealPolicy = StealPolicy::SameAndSimilar;
        else if (policy == "busiest")
            params.stealPolicy = StealPolicy::BusiestFirst;
        else
            throw SchedulerOptionError(
                "option 'steal': expected none, same, similar or "
                "busiest, got '" +
                policy + "'");
    }
    params.reallocationGuard =
        options.getDouble("realloc_guard", params.reallocationGuard, 0.0,
                          1.0);
    params.routeInterrupts =
        options.getBool("route_irqs", params.routeInterrupts);
    params.useExactOverlap =
        options.getBool("exact_overlap", params.useExactOverlap);
    params.tallocInsts =
        options.getUnsigned("talloc_insts", params.tallocInsts, 0,
                            kMaxOptionCount);
    params.demandSmoothing =
        options.getDouble("demand_smoothing", params.demandSmoothing, 0.0,
                          1.0);
    params.useWaitSignal =
        options.getBool("wait_signal", params.useWaitSignal);
}

} // namespace

void
registerSchedTaskTechnique()
{
    SchedulerInfo info;
    info.name = "SchedTask";
    info.description = "hardware-assisted TAlloc + TMigrate task "
                       "scheduler (this paper)";
    info.paperOrder = 5;
    info.options = schedTaskOptionSpecs();
    info.factory =
        [](const SchedulerFactoryContext &ctx) -> std::unique_ptr<Scheduler> {
        SchedTaskParams p = ctx.schedTask;
        applySchedTaskOptions(p, ctx.options);
        return std::make_unique<SchedTaskScheduler>(p);
    };
    SchedulerRegistry::instance().registerScheduler(std::move(info));
}

} // namespace schedtask
