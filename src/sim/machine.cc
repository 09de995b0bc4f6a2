#include "sim/machine.hh"

#include <algorithm>

#include "common/invariants.hh"
#include "common/logging.hh"

namespace schedtask
{

Machine::Machine(const MachineParams &params, const HierarchyParams &hier,
                 BenchmarkSuite &suite, const Workload &workload,
                 Scheduler &scheduler)
    : params_(params),
      scheduler_(&scheduler),
      irq_ctrl_(params.numCores),
      rng_(params.seed),
      id_alloc_(params.numCores),
      sched_code_(&suite.catalog().schedulerCode()),
      num_parts_(workload.numParts())
{
    HierarchyParams hp = hier;
    hp.numCores = params_.numCores;
    hierarchy_ = std::make_unique<MemHierarchy>(hp);

    heatmaps_enabled_ = scheduler_->wantsHeatmap();
    scheduler_->attach(*this);

    // Hot state is packed once up front; Cores keep references into
    // the array, so it must never reallocate after this point.
    core_hot_.resize(params_.numCores);
    cores_.reserve(params_.numCores);
    for (unsigned c = 0; c < params_.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(
            c, *this, params_.heatmapBits, core_hot_[c], rng_.split()));
    }

    metrics_.appEventsByPart.assign(num_parts_, 0);
    metrics_.instsByPart.assign(num_parts_, 0);
    metrics_.perCoreIdleCycles.assign(params_.numCores, 0);

    if (params_.trace) {
        epoch_trace_ = std::make_unique<EpochTrace>(
            traceEpochCapacity, traceEventCapacity);
        epoch_core_acc_.assign(params_.numCores, EpochCoreSample{});
        resetEpochBaseline();
    }

    // Spawn threads: each thread's application SuperFunction is
    // created by the fork handler on some core; we attribute the ID
    // to the core the thread initially lands on.
    ThreadId tid = 0;
    for (const ThreadSpec &spec : workload.threads()) {
        auto thread = std::make_unique<Thread>(tid, spec, rng_.split());
        SuperFunction &app = thread->appSf();
        app.id = id_alloc_.next(tid % params_.numCores);
        app.lastCore = tid % params_.numCores;
        threads_.push_back(std::move(thread));
        ++tid;
    }
    thread_insts_.assign(threads_.size(), 0);
    for (auto &thread : threads_)
        scheduler_->onSfStart(&thread->appSf());

    for (const AmbientIrqInstance &inst : workload.ambient())
        armAmbientStream(inst);

    next_epoch_ = params_.epochCycles;
}

Machine::~Machine() = default;

void
Machine::run(Cycles duration)
{
    const Cycles end = now_ + duration;
    while (now_ < end) {
        notePanicContext(epochs_done_, now_);
        const Cycles qend =
            std::min({now_ + quantumCycles, end, next_epoch_});
        events_.runDue(now_);
        // Multi-pass quantum: a core that ran dry is re-polled after
        // the other cores ran, so work enqueued to it mid-quantum is
        // picked up immediately rather than a quantum later.
        bool progress = true;
        while (progress) {
            progress = false;
            for (auto &core : cores_) {
                if (core->clock() < qend)
                    progress |= core->runUntil(qend);
            }
        }
        for (auto &core : cores_) {
            if (core->clock() < qend) {
                recordIdle(core->id(), qend - core->clock());
                core->syncClock(qend);
            }
        }
        now_ = qend;
        if (now_ >= next_epoch_) {
            chargeEpochWork();
            scheduler_->onEpoch();
            if constexpr (checkedBuild)
                checkEpochInvariants();
            if (epoch_trace_)
                captureEpochSample();
            // The exact-page window is one epoch, aligned with the
            // stats table TAlloc just aggregated (and the sample's
            // rankingTau just read).
            if (params_.trackExactPages)
                exact_pages_.clear();
            next_epoch_ += params_.epochCycles;
            ++epochs_done_;
        }
    }
    clearPanicContext();
    metrics_.cycles += duration;
}

void
Machine::checkEpochInvariants() const
{
    // Instruction accounting balances: every retired instruction is
    // either in exactly one category (recordInsts) or overhead
    // (recordOverheadInsts).
    std::uint64_t by_category = 0;
    for (std::uint64_t v : metrics_.instsByCategory)
        by_category += v;
    SCHEDTASK_ASSERT(by_category + metrics_.overheadInsts
                         == metrics_.instsRetired,
                     "instruction accounting out of balance: ",
                     by_category, " by category + ",
                     metrics_.overheadInsts, " overhead != ",
                     metrics_.instsRetired, " retired");

    // Idle cycles sum per core.
    std::uint64_t core_idle = 0;
    for (std::uint64_t v : metrics_.perCoreIdleCycles)
        core_idle += v;
    SCHEDTASK_ASSERT(core_idle == metrics_.idleCycles,
                     "per-core idle sum ", core_idle,
                     " != total idle ", metrics_.idleCycles);

    // The scheduler's queue bookkeeping (TMigrate's running
    // backlogs) agrees with its queues.
    scheduler_->checkInvariants();

    // Every cache level is structurally sound: at most capacity
    // valid blocks, and no set holds two valid copies of one tag
    // (the invalidate-then-reinsert duplicate regression).
    hierarchy_->checkCacheInvariants();

    // Every heatmap register's popcount fits its width, and the
    // hardware hash agrees with a straightforwardly-written
    // reference (paper Section 3.2: six 9-bit-stride shifts).
    for (const auto &core : cores_) {
        const PageHeatmap &hm = core->heatmapRegister();
        SCHEDTASK_ASSERT(hm.popcount() <= hm.bits(),
                         "heatmap popcount ", hm.popcount(),
                         " exceeds register width ", hm.bits());
    }
    for (const Addr pfn : {Addr{0}, Addr{1}, Addr{0x12345},
                           Addr{0xfffffffffffff}}) {
        std::uint64_t ref = 0;
        for (unsigned k = 0; k < 6; ++k)
            ref += pfn >> (9 * k);
        SCHEDTASK_ASSERT(PageHeatmap::hashPfn(pfn) == ref,
                         "heatmap hash diverges from the paper "
                         "formula for pfn ", pfn);
    }

    // In trace mode the per-core category and per-type accumulators
    // must each equal the epoch's non-overhead instruction delta
    // (recordInsts feeds all three from the same argument).
    if (epoch_trace_) {
        std::uint64_t acc = 0;
        for (const EpochCoreSample &cs : epoch_core_acc_)
            for (std::uint64_t v : cs.instsByCategory)
                acc += v;
        std::uint64_t by_type = 0;
        for (const auto &[type, insts] : epoch_type_acc_)
            by_type += insts;
        const std::uint64_t delta =
            (metrics_.instsRetired - epoch_base_.metrics.instsRetired)
            - (metrics_.overheadInsts
               - epoch_base_.metrics.overheadInsts);
        SCHEDTASK_ASSERT(acc == delta,
                         "per-core epoch accumulator ", acc,
                         " != epoch instruction delta ", delta);
        SCHEDTASK_ASSERT(by_type == delta,
                         "per-type epoch accumulator ", by_type,
                         " != epoch instruction delta ", delta);
    }
}

void
Machine::chargeEpochWork()
{
    // TAlloc (or the technique's equivalent) runs on core 0 at the
    // start of each epoch (Section 5.2); its cost is whatever the
    // scheduler reports for the Epoch event.
    cores_[0]->chargeOverhead(SchedEvent::Epoch, nullptr);
}

void
Machine::resetStats()
{
    metrics_ = SimMetrics{};
    metrics_.appEventsByPart.assign(num_parts_, 0);
    metrics_.instsByPart.assign(num_parts_, 0);
    metrics_.perCoreIdleCycles.assign(params_.numCores, 0);
    hierarchy_->resetStats();
    std::fill(thread_insts_.begin(), thread_insts_.end(), 0);
    if (epoch_trace_) {
        epoch_trace_->clear();
        epoch_core_acc_.assign(params_.numCores, EpochCoreSample{});
        epoch_type_acc_.clear();
        resetEpochBaseline();
    }
}

void
Machine::resetEpochBaseline()
{
    epoch_base_ = EpochBaseline{metrics_, hierarchy_->iCountsTotal(),
                                hierarchy_->l2Counts(), now_};
}

void
Machine::captureEpochSample()
{
    const SimMetrics &base = epoch_base_.metrics;
    EpochSample s;
    s.index = epoch_trace_->samples().totalRecorded();
    s.startCycle = epoch_base_.startCycle;
    s.endCycle = now_;
    s.instsRetired = metrics_.instsRetired - base.instsRetired;
    s.overheadInsts = metrics_.overheadInsts - base.overheadInsts;
    // Copy, then clear: clear() keeps the bucket array, so every
    // epoch's map iterates in the order its insertions produce.
    s.instsByType = epoch_type_acc_;
    epoch_type_acc_.clear();
    s.migrations = metrics_.migrations - base.migrations;
    s.idleCycles = metrics_.idleCycles - base.idleCycles;
    s.irqCount = metrics_.irqCount - base.irqCount;

    // Miss rate of the epoch's accesses; 0 when there were none.
    const auto missRate = [](const AccessCounts &now,
                             const AccessCounts &then) {
        return 1.0
            - AccessCounts{now.accesses - then.accesses,
                           now.hits - then.hits}
                  .hitRate();
    };
    s.l1iMissRate = missRate(hierarchy_->iCountsTotal(), epoch_base_.l1i);
    s.l2MissRate = missRate(hierarchy_->l2Counts(), epoch_base_.l2);

    s.cores = epoch_core_acc_;
    for (unsigned c = 0; c < params_.numCores; ++c)
        s.cores[c].idleCycles =
            metrics_.perCoreIdleCycles[c] - base.perCoreIdleCycles[c];

    s.sched = scheduler_->epochDecision();

    epoch_trace_->record(std::move(s));
    epoch_core_acc_.assign(params_.numCores, EpochCoreSample{});
    resetEpochBaseline();
}

SimMetrics
Machine::metricsSnapshot() const
{
    SimMetrics snap = metrics_;
    snap.perThreadInsts.reserve(threads_.size());
    for (const auto &thread : threads_)
        snap.perThreadInsts.push_back(thread_insts_[thread->id()]);
    if (epoch_trace_) {
        snap.epochSamples = epoch_trace_->samples().items();
        snap.sfEvents = epoch_trace_->events().items();
    }
    return snap;
}

void
Machine::raiseIrq(const PendingIrq &irq)
{
    CoreId target = irq_ctrl_.routeOf(irq.irq);
    if (target == invalidCore || target >= params_.numCores)
        target = scheduler_->routeIrq(irq.irq);
    SCHEDTASK_ASSERT(target < params_.numCores,
                     "scheduler routed IRQ to invalid core ", target);
    cores_[target]->deliverIrq(irq);
    irq_ctrl_.noteDelivered();
}

void
Machine::scheduleDelayedWakeup(SuperFunction *sf, Cycles delay)
{
    events_.schedule(now_ + delay, [this, sf] {
        if (sf->state == SfState::Waiting)
            scheduler_->onSfWakeup(sf);
    });
}

void
Machine::recordInsts(SuperFunction *sf, std::uint64_t insts)
{
    metrics_.instsRetired += insts;
    metrics_.instsByCategory[static_cast<unsigned>(
        sf->info->category)] += insts;
    if (sf->partIndex < metrics_.instsByPart.size())
        metrics_.instsByPart[sf->partIndex] += insts;
    if (sf->thread != nullptr)
        thread_insts_[sf->thread->id()] += insts;
    if (epoch_trace_) {
        if (sf->coreId < epoch_core_acc_.size())
            epoch_core_acc_[sf->coreId].instsByCategory[
                static_cast<unsigned>(sf->info->category)] += insts;
        epoch_type_acc_[sf->type.raw()] += insts;
    }
}

void
Machine::recordOverheadInsts(std::uint64_t insts)
{
    metrics_.instsRetired += insts;
    metrics_.overheadInsts += insts;
}

void
Machine::recordIrqServiced(Cycles latency)
{
    ++metrics_.irqCount;
    metrics_.irqLatencySum += latency;
}

void
Machine::noteDispatch(CoreId core, SuperFunction *sf)
{
    sf->lastCore = core;
    trace(SfEventKind::Dispatch, core, sf);
    Thread *thread = sf->thread;
    if (thread == nullptr)
        return;
    if (thread->lastCore != invalidCore && thread->lastCore != core) {
        ++metrics_.migrations;
        trace(SfEventKind::Migrate, core, sf);
    }
    thread->lastCore = core;
}

Machine::AppSliceOutcome
Machine::onAppSliceDone(Core &core, SuperFunction *sf)
{
    Thread *thread = sf->thread;
    SCHEDTASK_ASSERT(thread != nullptr, "app SF without thread");
    const TransactionPhase &phase = thread->currentPhase();

    if (!phase.hasSyscall()) {
        // Pure-compute phase: advance and keep running in place.
        if (thread->advancePhase())
            countTransaction(*thread);
        thread->prepareAppSlice();
        return AppSliceOutcome::ContinueApp;
    }

    // The thread executes a system call instruction: the application
    // SuperFunction ends here and a handler SuperFunction begins
    // (Section 3). The handler is a child of the application SF.
    core.endSlice(sf);

    const SyscallPhase &sc = phase.syscall;
    SuperFunction *call = allocSf();
    call->info = sc.handler;
    call->type = sc.handler->type;
    call->id = id_alloc_.next(core.id());
    call->parent = sf;
    call->tid = thread->id();
    call->thread = thread;
    call->phase = &sc;
    call->partIndex = sf->partIndex;
    call->lastCore = core.id();
    call->instsTarget = std::max<std::uint64_t>(
        thread->rng().taskLength(static_cast<double>(sc.meanInsts)),
        instsPerFetchBlock);
    call->walker.reset(&sc.handler->code, sc.handler->jumpProb, 0);
    if (sc.blockProb > 0.0 && thread->rng().chance(sc.blockProb)) {
        call->blockAtInsts = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                sc.preBlockFraction
                * static_cast<double>(call->instsTarget)),
            instsPerFetchBlock);
    }

    sf->state = SfState::Waiting; // waiting for the child to finish
    core.chargeOverhead(SchedEvent::Start, call);
    scheduler_->onSfStart(call);
    return AppSliceOutcome::StartedSyscall;
}

void
Machine::onSyscallComplete(Core &core, SuperFunction *sf)
{
    (void)core;
    SuperFunction *parent = sf->parent;
    Thread *thread = sf->thread;
    SCHEDTASK_ASSERT(parent != nullptr && thread != nullptr,
                     "syscall SF needs a parent application SF");

    if (thread->advancePhase())
        countTransaction(*thread);
    thread->prepareAppSlice();

    trace(SfEventKind::Complete, sf->lastCore, sf);

    // TMigrate recognizes the parent through parentSuperFuncPtr and
    // schedules the thread back to the application SF's core
    // (Section 5.1) — placement policy is the scheduler's.
    scheduler_->onSfResume(parent, sf);
    recycleSf(sf);
}

void
Machine::onIrqSfComplete(Core &core, SuperFunction *sf)
{
    if (sf->pendingBh != nullptr) {
        SuperFunction *bh = allocSf();
        bh->info = sf->pendingBh;
        bh->type = sf->pendingBh->type;
        bh->id = id_alloc_.next(core.id());
        bh->tid = sf->tid;
        bh->wakeTarget = sf->wakeTarget;
        bh->partIndex = sf->partIndex;
        bh->lastCore = core.id();
        bh->instsTarget = std::max<std::uint64_t>(sf->pendingBhInsts,
                                                  instsPerFetchBlock);
        bh->walker.reset(&sf->pendingBh->code, sf->pendingBh->jumpProb,
                         0);
        core.chargeOverhead(SchedEvent::Start, bh);
        scheduler_->onSfStart(bh);
    } else if (sf->wakeTarget != nullptr) {
        // Ack-only interrupt that directly completes an I/O.
        SuperFunction *target = sf->wakeTarget;
        if (target->state == SfState::Waiting) {
            core.chargeOverhead(SchedEvent::Wakeup, target);
            trace(SfEventKind::Wakeup, core.id(), target);
            scheduler_->onSfWakeup(target);
        }
    }
    recycleSf(sf);
}

void
Machine::onBhComplete(Core &core, SuperFunction *sf)
{
    trace(SfEventKind::Complete, core.id(), sf);
    if (sf->wakeTarget != nullptr) {
        SuperFunction *target = sf->wakeTarget;
        if (target->state == SfState::Waiting) {
            core.chargeOverhead(SchedEvent::Wakeup, target);
            trace(SfEventKind::Wakeup, core.id(), target);
            scheduler_->onSfWakeup(target);
        }
    }
    recycleSf(sf);
}

void
Machine::onSfBlockPoint(Core &core, SuperFunction *sf)
{
    const SyscallPhase *phase = sf->phase;
    SCHEDTASK_ASSERT(phase != nullptr, "blocking SF without a phase");
    sf->state = SfState::Waiting;
    sf->blockAtInsts = 0;

    PendingIrq irq;
    irq.irq = phase->irq;
    irq.handler = phase->irqHandler;
    irq.handlerInsts = std::max<std::uint64_t>(
        rng_.taskLength(static_cast<double>(phase->irqMeanInsts)),
        instsPerFetchBlock);
    irq.bottomHalf = phase->bottomHalf;
    irq.bhInsts = phase->bottomHalf != nullptr
        ? std::max<std::uint64_t>(
              rng_.taskLength(static_cast<double>(phase->bhMeanInsts)),
              instsPerFetchBlock)
        : 0;
    irq.wakeTarget = sf;
    irq.partIndex = sf->partIndex;

    const Cycles latency = std::max<Cycles>(
        rng_.geometric(static_cast<double>(phase->meanDeviceCycles)), 1);
    const Cycles when = core.clock() + latency;
    irq.raisedAt = when;
    events_.schedule(when, [this, irq] { raiseIrq(irq); });

    trace(SfEventKind::Block, core.id(), sf);
    scheduler_->onSfBlock(sf);
}

SuperFunction *
Machine::makeIrqSf(CoreId core, const PendingIrq &irq)
{
    SCHEDTASK_ASSERT(irq.handler != nullptr, "IRQ without handler info");
    SuperFunction *sf = allocSf();
    sf->info = irq.handler;
    sf->type = irq.handler->type;
    sf->id = id_alloc_.next(core);
    sf->tid = irq.wakeTarget != nullptr ? irq.wakeTarget->tid
                                        : invalidThread;
    sf->partIndex = irq.partIndex;
    sf->lastCore = core;
    sf->instsTarget = std::max<std::uint64_t>(irq.handlerInsts,
                                              instsPerFetchBlock);
    sf->pendingBh = irq.bottomHalf;
    sf->pendingBhInsts = irq.bhInsts;
    sf->wakeTarget = irq.wakeTarget;
    sf->walker.reset(&irq.handler->code, irq.handler->jumpProb, 0);
    return sf;
}

SuperFunction *
Machine::allocSf()
{
    if (!sf_free_.empty()) {
        SuperFunction *sf = sf_free_.back();
        sf_free_.pop_back();
        return sf;
    }
    return sf_arena_.alloc();
}

void
Machine::recycleSf(SuperFunction *sf)
{
    sf->reset();
    sf_free_.push_back(sf);
}

void
Machine::armAmbientStream(const AmbientIrqInstance &inst)
{
    const AmbientIrqSpec &spec = inst.spec;
    const Cycles first = std::max<Cycles>(
        rng_.geometric(static_cast<double>(spec.meanPeriod)), 1);
    // The self-rescheduling closure keeps the stream alive for the
    // whole simulation.
    struct Rearm
    {
        Machine *m;
        AmbientIrqInstance inst;

        void
        operator()() const
        {
            const AmbientIrqSpec &s = inst.spec;
            PendingIrq irq;
            irq.irq = s.irq;
            irq.handler = s.handler;
            irq.handlerInsts = std::max<std::uint64_t>(
                m->rng_.geometric(
                    static_cast<double>(s.handlerMeanInsts)),
                instsPerFetchBlock);
            irq.bottomHalf = s.bottomHalf;
            irq.bhInsts = s.bottomHalf != nullptr
                ? std::max<std::uint64_t>(
                      m->rng_.geometric(
                          static_cast<double>(s.bhMeanInsts)),
                      instsPerFetchBlock)
                : 0;
            irq.partIndex = inst.partIndex;
            irq.raisedAt = m->now();
            m->raiseIrq(irq);
            const Cycles next = std::max<Cycles>(
                m->rng_.geometric(static_cast<double>(s.meanPeriod)),
                1);
            m->events_.schedule(m->now() + next, Rearm{m, inst});
        }
    };
    events_.schedule(now_ + first, Rearm{this, inst});
}

void
Machine::countTransaction(Thread &thread)
{
    const std::uint64_t events = thread.profile().eventsPerTransaction;
    metrics_.appEvents += events;
    const unsigned part = thread.spec().partIndex;
    if (part < metrics_.appEventsByPart.size())
        metrics_.appEventsByPart[part] += events;
}

} // namespace schedtask
