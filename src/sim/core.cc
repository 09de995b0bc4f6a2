#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/machine.hh"

namespace schedtask
{

namespace
{
/** Clears the panic-context SF name when execution leaves the SF,
 *  whichever of executeCurrent's exits is taken. */
struct SfTypeContextGuard
{
    ~SfTypeContextGuard() { notePanicSfType(nullptr); }
};

/**
 * Blocks the original per-block loop would execute before the check
 * `done >= bound` first fires: at least one (checks run after a
 * block), else enough blocks to close the gap.
 */
constexpr std::uint64_t
blocksUntil(std::uint64_t done, std::uint64_t bound)
{
    if (done >= bound)
        return 1;
    return (bound - done + instsPerFetchBlock - 1) / instsPerFetchBlock;
}

/** Segment cap when no mid-SF check bounds it (interrupt handlers):
 *  boundaries still bound every segment, this only keeps the
 *  arithmetic overflow-free. */
constexpr std::uint64_t unboundedSegBlocks =
    std::uint64_t{1} << 40;

} // namespace

Core::Core(CoreId id, Machine &machine, unsigned heatmap_bits,
           HotState &hot, Rng rng)
    : hot_(hot), id_(id), m_(machine),
      cost_factor_(machine.coreCostFactor(id)), heatmap_(heatmap_bits)
{
    hot_.rng = rng;
    const SfTypeInfo &sched_code = m_.schedulerCode();
    overhead_walker_.reset(&sched_code.code, sched_code.jumpProb,
                           id % sched_code.code.size());
}

void
Core::deliverIrq(const PendingIrq &irq)
{
    pending_irqs_.push_back(irq);
}

void
Core::syncClock(Cycles to)
{
    if (hot_.clock < to)
        hot_.clock = to;
}

bool
Core::inIrqHandler() const
{
    return hot_.current != nullptr
        && hot_.current->info->category == SfCategory::Interrupt;
}

bool
Core::runUntil(Cycles limit)
{
    const Cycles entry_clock = hot_.clock;
    while (hot_.clock < limit) {
        if (!pending_irqs_.empty() && !inIrqHandler()) {
            startIrqHandler();
            continue;
        }
        if (hot_.current == nullptr) {
            SuperFunction *next = m_.sched().pickNext(id_);
            if (next == nullptr)
                break; // nothing to do right now
            next->state = SfState::Running;
            m_.noteDispatch(id_, next);
            hot_.current = next;
            chargeOverhead(SchedEvent::Dispatch, next);
            beginSlice(next);
        }
        executeCurrent(limit);
    }
    return hot_.clock != entry_clock;
}

void
Core::startIrqHandler()
{
    PendingIrq irq = pending_irqs_.front();
    pending_irqs_.pop_front();

    m_.recordIrqServiced(hot_.clock > irq.raisedAt
                             ? hot_.clock - irq.raisedAt
                             : 0);
    hot_.clock += scaleCost(m_.params().irqEntryCycles);

    if (hot_.current != nullptr) {
        endSlice(hot_.current);
        hot_.current->state = SfState::Paused;
        m_.trace(SfEventKind::Pause, id_, hot_.current);
        paused_.push_back(hot_.current);
        hot_.current = nullptr;
    }

    SuperFunction *handler = m_.makeIrqSf(id_, irq);
    handler->state = SfState::Running;
    handler->coreId = id_;
    hot_.current = handler;
    beginSlice(handler);
}

void
Core::beginSlice(SuperFunction *sf)
{
    sf->coreId = id_;
    sf->instsThisDispatch = 0;
    hot_.sliceStart = hot_.clock;
    hot_.sliceInsts = 0;
    if (m_.heatmapsEnabled())
        heatmap_.clear();
    m_.hierarchy().onTaskStart(id_, sf->type.raw());

    // Pre-resolve the data-region spec pickDataAddr consults on
    // every access: the inputs (type info, thread spec) are fixed
    // for the whole dispatch.
    const SfTypeInfo &info = *sf->info;
    const Thread *thread = sf->thread;
    Addr shared_base = 0, priv_base = 0;
    std::uint64_t shared_bytes = 0, priv_bytes = 0;
    double shared_prob = info.sharedDataProb;
    if (info.category == SfCategory::Application) {
        SCHEDTASK_ASSERT(thread != nullptr, "app SF without thread");
        shared_base = thread->spec().sharedDataBase;
        shared_bytes = thread->spec().sharedDataBytes;
        priv_base = thread->spec().privateDataBase;
        priv_bytes = thread->spec().privateDataBytes;
        shared_prob = thread->profile().appSharedDataProb;
    } else {
        shared_base = info.sharedDataBase;
        shared_bytes = info.sharedDataBytes;
        if (thread != nullptr) {
            priv_base = thread->spec().privateDataBase;
            priv_bytes = thread->spec().privateDataBytes;
        }
    }
    const auto makeRegion = [](Addr base, std::uint64_t bytes) {
        DataRegion r;
        r.base = base;
        r.fullLines = bytes / lineBytes;
        if (bytes > hotBytesCap)
            r.hotLines = hotBytesCap / lineBytes;
        return r;
    };
    hot_.regions[0] = makeRegion(shared_base, shared_bytes);
    hot_.regions[1] = makeRegion(priv_base, priv_bytes);
    hot_.sharedProb = shared_prob;
    hot_.drawRegion = shared_bytes != 0 && priv_bytes != 0;
    hot_.primary = shared_bytes != 0 ? 0 : 1;
}

void
Core::endSlice(SuperFunction *sf)
{
    m_.sched().onSliceEnd(id_, sf, hot_.clock - hot_.sliceStart,
                          hot_.sliceInsts, heatmap_);
}

void
Core::chargeOverhead(SchedEvent event, const SuperFunction *sf)
{
    const SchedOverhead oh = m_.sched().overheadFor(event, sf);
    // Hardware scheduler latency (HTS): a flat clock charge with no
    // instruction fetch, independent of core speed.
    hot_.clock += oh.fixedCycles;
    if (oh.insts == 0)
        return;
    const Footprint *code =
        oh.code != nullptr ? &oh.code->code : overhead_walker_.footprint();
    if (overhead_walker_.footprint() != code)
        overhead_walker_.reset(code, 0.02, 0);

    const std::uint64_t blocks =
        (oh.insts + instsPerFetchBlock - 1) / instsPerFetchBlock;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const Addr line = overhead_walker_.nextLine(hot_.rng);
        hot_.clock += scaleCost(
            m_.params().blockBaseCycles
            + m_.hierarchy().fetch(id_, line, ExecClass::Os));
    }
    m_.recordOverheadInsts(blocks * instsPerFetchBlock);
}

Addr
Core::pickDataAddr()
{
    HotState &h = hot_;
    // Temporal burst: re-touch a recently accessed line (stack and
    // working-struct accesses dominate real data streams).
    if (h.recentCount > 0 && h.rng.chance(recentReuseProb))
        return h.recentData[h.rng.below(h.recentCount)];

    const DataRegion &r = h.regions[
        h.drawRegion ? (h.rng.chance(h.sharedProb) ? 0u : 1u)
                     : h.primary];
    if (r.fullLines == 0)
        return 0; // no data region at all: skip the access

    // Hot-subset locality: most accesses target a bounded hot
    // subset of the region (inode/dentry caches, request headers,
    // the current rows of a scan); the rest sample the whole region
    // cold. OOO execution hides most of the cold-miss latency (the
    // hierarchy's dataHideFactor).
    std::uint64_t lines = r.fullLines;
    if (r.hotLines != 0 && h.rng.chance(hotSubsetProb))
        lines = r.hotLines;
    const Addr addr = r.base + h.rng.below(lines) * lineBytes;

    h.recentData[h.recentPos] = addr;
    h.recentPos = (h.recentPos + 1) % recentDataSize;
    if (h.recentCount < recentDataSize)
        ++h.recentCount;
    return addr;
}

void
Core::executeCurrent(Cycles limit)
{
    HotState &h = hot_;
    SuperFunction *sf = h.current;
    const SfTypeInfo &info = *sf->info;
    notePanicSfType(info.name.c_str());
    const SfTypeContextGuard sf_ctx_guard;
    const bool is_app = info.category == SfCategory::Application;
    const bool is_irq = info.category == SfCategory::Interrupt;
    const ExecClass cls = is_app ? ExecClass::App : ExecClass::Os;
    const MachineParams &p = m_.params();
    const unsigned base_accesses =
        static_cast<unsigned>(p.dataAccessesPerBlock);
    const double frac_access =
        p.dataAccessesPerBlock - static_cast<double>(base_accesses);
    const double write_fraction = info.writeFraction;
    const bool heatmap_on = m_.heatmapsEnabled();
    const bool exact_pages = m_.exactPagesEnabled();
    MemHierarchy &mem = m_.hierarchy();
    Scheduler &sched = m_.sched();
    FootprintWalker &walker = sf->walker;

    // Interrupt delivery is event-driven and events fire only at
    // quantum boundaries (Machine::run), so the pending-IRQ state
    // cannot change while this call runs: check it once on entry
    // instead of per fetch block.
    if (!pending_irqs_.empty() && !inIrqHandler())
        return; // outer loop services the interrupt

    // Machine-level instruction accounting is batched: the counters
    // recordInsts feeds are additive and keyed by values constant
    // for the duration of this call (sf, its category, its core), so
    // one flush of the accumulated delta at every exit — and before
    // any call that could observe the counters — lands the exact
    // same totals as a call per fetch block.
    std::uint64_t unreported = 0;
    const auto flushInsts = [&] {
        if (unreported != 0) {
            m_.recordInsts(sf, unreported);
            unreported = 0;
        }
    };

    // The scheduler's queues cannot change inside this call either
    // (queue mutations happen in boundary handlers, which return, or
    // at quantum/epoch boundaries): once hasRunnable() reports an
    // empty queue the timeslice can stop re-checking until the next
    // call.
    bool timeslice_armed = is_app;

    while (h.clock < limit) {
        // ---- segment length: blocks until the nearest boundary ----
        std::uint64_t seg = is_irq
            ? unboundedSegBlocks
            : p.midSfCheckBlocks - h.blocksSinceCheck;
        if (sf->blockAtInsts != 0)
            seg = std::min(seg,
                           blocksUntil(sf->instsDone, sf->blockAtInsts));
        seg = std::min(seg, blocksUntil(sf->instsDone, sf->instsTarget));
        if (timeslice_armed)
            seg = std::min(seg, blocksUntil(sf->instsThisDispatch,
                                            p.timesliceInsts));

        // ---- execute the segment: pure per-block work -------------
        std::uint64_t blocks = 0;
        while (blocks < seg && h.clock < limit) {
            // One fetch block: 16 instructions from one i-cache line.
            const Addr line = walker.nextLine(h.rng);
            Cycles cost = p.blockBaseCycles + mem.fetch(id_, line, cls);

            unsigned accesses = base_accesses;
            if (frac_access > 0.0 && h.rng.chance(frac_access))
                ++accesses;
            for (unsigned a = 0; a < accesses; ++a) {
                const Addr daddr = pickDataAddr();
                if (daddr == 0)
                    continue;
                const bool write = h.rng.chance(write_fraction);
                cost += mem.data(id_, daddr, write, cls);
            }

            h.clock += scaleCost(cost);
            if (heatmap_on)
                heatmap_.insertAddr(line);
            if (exact_pages)
                m_.recordExactPage(sf->type, pageFrameOf(line));
            ++blocks;
        }

        const std::uint64_t insts = blocks * instsPerFetchBlock;
        sf->instsDone += insts;
        sf->instsThisDispatch += insts;
        h.sliceInsts += insts;
        unreported += insts;
        // The mid-SF counter counts blocks that *reach* the mid-SF
        // check in the per-block formulation — i.e. every block
        // except one whose earlier boundary returns. Count them all
        // here and take one back on those return paths.
        if (!is_irq)
            h.blocksSinceCheck += static_cast<unsigned>(blocks);

        if (blocks < seg)
            break; // clock hit the limit before any boundary

        // ---- boundary checks, in the original order ---------------
        if (sf->blockAtInsts != 0 && sf->instsDone >= sf->blockAtInsts) {
            if (!is_irq)
                --h.blocksSinceCheck;
            flushInsts();
            endSlice(sf);
            chargeOverhead(SchedEvent::Block, sf);
            m_.onSfBlockPoint(*this, sf);
            h.current = nullptr;
            return;
        }

        if (sf->instsDone >= sf->instsTarget) {
            flushInsts();
            switch (info.category) {
              case SfCategory::Application: {
                const auto outcome = m_.onAppSliceDone(*this, sf);
                if (outcome == Machine::AppSliceOutcome::StartedSyscall) {
                    --h.blocksSinceCheck;
                    h.current = nullptr;
                    return;
                }
                break; // budget extended; keep executing
              }
              case SfCategory::SystemCall:
                --h.blocksSinceCheck;
                endSlice(sf);
                chargeOverhead(SchedEvent::Complete, sf);
                m_.onSyscallComplete(*this, sf);
                h.current = nullptr;
                return;
              case SfCategory::Interrupt: {
                endSlice(sf);
                m_.onIrqSfComplete(*this, sf);
                // Resume the SuperFunction paused by this interrupt.
                h.current = nullptr;
                if (!paused_.empty()) {
                    h.current = paused_.back();
                    paused_.pop_back();
                    h.current->state = SfState::Running;
                    beginSlice(h.current);
                }
                return;
              }
              case SfCategory::BottomHalf:
                --h.blocksSinceCheck;
                endSlice(sf);
                chargeOverhead(SchedEvent::Complete, sf);
                m_.onBhComplete(*this, sf);
                h.current = nullptr;
                return;
            }
        }

        // Timeslice preemption applies to application code only;
        // kernel handlers run to completion (as in the paper).
        if (timeslice_armed
                && sf->instsThisDispatch >= p.timesliceInsts) {
            if (sched.hasRunnable(id_)) {
                --h.blocksSinceCheck;
                flushInsts();
                endSlice(sf);
                chargeOverhead(SchedEvent::Yield, sf);
                sched.onSfYield(sf);
                h.current = nullptr;
                return;
            }
            timeslice_armed = false;
        }

        // Mid-SuperFunction placement (SLICC's hardware migration).
        // Interrupt handlers are excluded: they run to completion
        // on the interrupted core, which also keeps the paused
        // SuperFunctions beneath them resumable.
        if (!is_irq && h.blocksSinceCheck >= p.midSfCheckBlocks) {
            h.blocksSinceCheck = 0;
            const CoreId target = sched.midSfPlacement(sf, id_);
            if (target != id_) {
                flushInsts();
                endSlice(sf);
                chargeOverhead(SchedEvent::Yield, sf);
                sched.onSfYield(sf);
                h.current = nullptr;
                return;
            }
        }
    }
    flushInsts();
}

} // namespace schedtask
