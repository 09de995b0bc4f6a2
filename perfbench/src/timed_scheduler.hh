/**
 * @file
 * A forwarding Scheduler decorator that times every scheduler hook
 * from outside the simulator.
 *
 * The Machine drives whatever Scheduler it is given, so wrapping the
 * registry-built technique in this class attributes host time to the
 * scheduler layer without touching the library. Every call is passed
 * through unchanged; results stay bitwise identical to the bare
 * scheduler (the benchmark checks this on every traced pass).
 *
 * Hook spans are aggregated per hook as (calls, nanoseconds) with
 * steady_clock reads. A full Figure 7 cross makes ~10M hook calls,
 * so per-call storage or a per-call thread-CPU clock would distort
 * the very numbers being measured.
 */

#ifndef PERFBENCH_TIMED_SCHEDULER_HH
#define PERFBENCH_TIMED_SCHEDULER_HH

#include <chrono>
#include <cstdint>

#include "core/schedtask_sched.hh"
#include "sched/scheduler.hh"

namespace perfbench
{

using namespace schedtask;

/** The timed scheduler entry points. */
enum class Hook : unsigned
{
    Start,
    Resume,
    Block,
    Wakeup,
    Yield,
    PickNext,
    RouteIrq,
    Epoch,
    MidSf,
    SliceEnd,
    Count,
};

inline constexpr unsigned numHooks = static_cast<unsigned>(Hook::Count);

/** Metric-name stems, indexed by Hook. */
inline constexpr const char *hookNames[numHooks] = {
    "start",    "resume",    "block",  "wakeup", "yield",
    "pick_next", "route_irq", "epoch", "mid_sf", "slice_end",
};

/** Per-hook call counts and summed host nanoseconds. */
struct HookTotals
{
    std::uint64_t calls[numHooks] = {};
    std::uint64_t ns[numHooks] = {};

    std::uint64_t
    totalNs() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : ns)
            sum += v;
        return sum;
    }

    HookTotals &
    operator+=(const HookTotals &other)
    {
        for (unsigned h = 0; h < numHooks; ++h) {
            calls[h] += other.calls[h];
            ns[h] += other.ns[h];
        }
        return *this;
    }
};

/** Scheduler-internal counters of a SchedTask run (TAlloc/TMigrate). */
struct CoreCounters
{
    std::uint64_t reallocations = 0;
    std::uint64_t sameSteals = 0;
    std::uint64_t similarSteals = 0;

    CoreCounters &
    operator+=(const CoreCounters &other)
    {
        reallocations += other.reallocations;
        sameSteals += other.sameSteals;
        similarSteals += other.similarSteals;
        return *this;
    }
};

class TimedScheduler final : public Scheduler
{
  public:
    explicit TimedScheduler(Scheduler &inner)
        : inner_(inner),
          schedtask_(dynamic_cast<const SchedTaskScheduler *>(&inner))
    {
    }

    /** Zero the totals; called when the measured window opens. */
    void
    startWindow()
    {
        totals_ = {};
        core_ = {};
        if (schedtask_ != nullptr) {
            steal_base_same_ = schedtask_->sameWorkSteals();
            steal_base_similar_ = schedtask_->similarWorkSteals();
        }
    }

    const HookTotals &totals() const { return totals_; }

    /** SchedTask counters since startWindow() (zero otherwise). */
    CoreCounters
    coreCounters() const
    {
        CoreCounters out = core_;
        if (schedtask_ != nullptr) {
            out.sameSteals =
                schedtask_->sameWorkSteals() - steal_base_same_;
            out.similarSteals =
                schedtask_->similarWorkSteals() - steal_base_similar_;
        }
        return out;
    }

    const char *name() const override { return inner_.name(); }

    unsigned
    coresRequired(unsigned baseline_cores) const override
    {
        return inner_.coresRequired(baseline_cores);
    }

    void
    configureMachine(MachineParams &params) const override
    {
        inner_.configureMachine(params);
    }

    void
    attach(Machine &machine) override
    {
        Scheduler::attach(machine);
        inner_.attach(machine);
    }

    void
    onSfStart(SuperFunction *sf) override
    {
        const Span span(*this, Hook::Start);
        inner_.onSfStart(sf);
    }

    void
    onSfResume(SuperFunction *parent,
               const SuperFunction *completed_child) override
    {
        const Span span(*this, Hook::Resume);
        inner_.onSfResume(parent, completed_child);
    }

    void
    onSfBlock(SuperFunction *sf) override
    {
        const Span span(*this, Hook::Block);
        inner_.onSfBlock(sf);
    }

    void
    onSfWakeup(SuperFunction *sf) override
    {
        const Span span(*this, Hook::Wakeup);
        inner_.onSfWakeup(sf);
    }

    void
    onSfYield(SuperFunction *sf) override
    {
        const Span span(*this, Hook::Yield);
        inner_.onSfYield(sf);
    }

    SuperFunction *
    pickNext(CoreId core) override
    {
        const Span span(*this, Hook::PickNext);
        return inner_.pickNext(core);
    }

    bool
    hasRunnable(CoreId core) const override
    {
        return inner_.hasRunnable(core);
    }

    CoreId
    routeIrq(IrqId irq) override
    {
        const Span span(*this, Hook::RouteIrq);
        return inner_.routeIrq(irq);
    }

    void
    onEpoch() override
    {
        {
            const Span span(*this, Hook::Epoch);
            inner_.onEpoch();
        }
        // epochDecision() is pure observation (see Scheduler), so
        // reading it outside the span changes nothing but host time.
        if (schedtask_ != nullptr && inner_.epochDecision().reallocated)
            ++core_.reallocations;
    }

    SchedEpochReport
    epochDecision() const override
    {
        return inner_.epochDecision();
    }

    CoreId
    midSfPlacement(SuperFunction *sf, CoreId current) override
    {
        const Span span(*this, Hook::MidSf);
        return inner_.midSfPlacement(sf, current);
    }

    SchedOverhead
    overheadFor(SchedEvent event, const SuperFunction *sf) const override
    {
        return inner_.overheadFor(event, sf);
    }

    void
    onSliceEnd(CoreId core, const SuperFunction *sf, Cycles elapsed,
               std::uint64_t insts, const PageHeatmap &heatmap) override
    {
        const Span span(*this, Hook::SliceEnd);
        inner_.onSliceEnd(core, sf, elapsed, insts, heatmap);
    }

    bool wantsHeatmap() const override { return inner_.wantsHeatmap(); }

  private:
    using Clock = std::chrono::steady_clock;

    /** Adds one call and its duration to the hook's totals. */
    class Span
    {
      public:
        Span(TimedScheduler &owner, Hook hook)
            : owner_(owner), hook_(static_cast<unsigned>(hook)),
              start_(Clock::now())
        {
        }

        ~Span()
        {
            const auto ns = std::chrono::duration_cast<
                                std::chrono::nanoseconds>(Clock::now()
                                                          - start_)
                                .count();
            owner_.totals_.ns[hook_] += static_cast<std::uint64_t>(ns);
            ++owner_.totals_.calls[hook_];
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        TimedScheduler &owner_;
        unsigned hook_;
        Clock::time_point start_;
    };

    Scheduler &inner_;
    const SchedTaskScheduler *schedtask_;
    HookTotals totals_;
    CoreCounters core_;
    std::uint64_t steal_base_same_ = 0;
    std::uint64_t steal_base_similar_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_SCHEDULER_HH
