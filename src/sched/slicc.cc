#include "sched/slicc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "sim/thread.hh"

namespace schedtask
{

namespace
{

/** Segment size in cache lines. */
constexpr std::uint64_t segmentLines = 64;
static_assert(segmentLines > 0, "segment size must be positive");
/** Queue depth at which a segment's collective grows. */
constexpr std::size_t spillThreshold = 1;

} // namespace

void
SliccScheduler::attach(Machine &machine)
{
    QueueScheduler::attach(machine);
    seg_homes_.clear();
    next_core_.clear();
}

std::uint64_t
SliccScheduler::appIdentityOf(const SuperFunction *sf)
{
    // Threads (and processes) of the same application binary share
    // segment maps; detached handlers are grouped by the workload
    // part that produced them.
    if (sf->thread != nullptr)
        return sf->thread->profile().app->type.raw();
    return 0x51cc000000000000ULL + sf->partIndex;
}

std::uint64_t
SliccScheduler::segmentKeyOf(const SuperFunction *sf) const
{
    const Footprint *fp = sf->walker.footprint();
    SCHEDTASK_ASSERT(fp != nullptr, "SF without a footprint");
    const std::uint64_t seg = sf->walker.cursor() / segmentLines;
    std::uint64_t key = appIdentityOf(sf);
    key ^= reinterpret_cast<std::uintptr_t>(fp) * 0x9e3779b97f4a7c15ULL;
    key ^= (seg + 1) * 0xc2b2ae3d27d4eb4fULL;
    return key;
}

const std::vector<CoreId> &
SliccScheduler::homesOf(SuperFunction *sf)
{
    segmentHome(sf); // ensure the entry exists
    return seg_homes_[segmentKeyOf(sf)];
}

CoreId
SliccScheduler::segmentHome(SuperFunction *sf)
{
    const std::uint64_t key = segmentKeyOf(sf);
    const std::uint64_t app = appIdentityOf(sf);

    auto it = seg_homes_.find(key);
    if (it == seg_homes_.end()) {
        // First touch: spread the application's segments round-robin
        // across the cores, aggregating L1I capacity.
        CoreId &next = next_core_[app];
        const CoreId home = next;
        next = (next + 1) % numCores();
        it = seg_homes_.emplace(key, std::vector<CoreId>{home}).first;
    }

    std::vector<CoreId> &homes = it->second;
    CoreId best = homes.front();
    for (CoreId c : homes) {
        if (queueLen(c) < queueLen(best))
            best = c;
    }

    // Self-assembly: if every core of the collective is backlogged,
    // grow it by one (the footprint's replica set expands to match
    // demand).
    if (queueLen(best) >= spillThreshold
            && homes.size() < numCores()) {
        CoreId &next = next_core_[app];
        const CoreId extra = next;
        next = (next + 1) % numCores();
        if (std::find(homes.begin(), homes.end(), extra)
                == homes.end()) {
            homes.push_back(extra);
            return extra;
        }
    }
    return best;
}

void
SliccScheduler::onEpoch()
{
    // Self-assembly in reverse: periodically every collective gives
    // one core back, so replica sets built for a burst dissolve and
    // the i-cache benefit of small collectives returns. Collectives
    // under sustained demand immediately re-grow through the spill
    // path.
    last_shrunk_ = 0;
    if (++epoch_counter_ % 4 != 0)
        return;
    for (auto &[key, homes] : seg_homes_) {
        if (homes.size() > 1) {
            homes.pop_back();
            ++last_shrunk_;
        }
    }
}

SchedEpochReport
SliccScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    report.allocTypes =
        static_cast<unsigned>(seg_homes_.size());
    report.allocCores = coveredCores(seg_homes_);
    report.reallocated = last_shrunk_ > 0;
    report.placementMoves = last_shrunk_;
    return report;
}

CoreId
SliccScheduler::choosePlacement(SuperFunction *sf, PlacementReason reason)
{
    (void)reason;
    return segmentHome(sf);
}

CoreId
SliccScheduler::midSfPlacement(SuperFunction *sf, CoreId current)
{
    // Stay put while the current core is part of the segment's
    // collective; otherwise chase the code.
    const std::uint64_t key = segmentKeyOf(sf);
    auto it = seg_homes_.find(key);
    if (it != seg_homes_.end()) {
        const auto &homes = it->second;
        if (std::find(homes.begin(), homes.end(), current)
                != homes.end()) {
            return current;
        }
    }
    return segmentHome(sf);
}

} // namespace schedtask

// Registry hook: called from the SchedulerRegistry constructor.

#include <memory>
#include <utility>

#include "sched/registry.hh"

namespace schedtask
{

void
registerSliccTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "SLICC";
    info.description = "self-assembling i-cache collectives with "
                       "hardware thread migration (Atta et al., MICRO "
                       "2012)";
    info.paperOrder = 4;
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<SliccScheduler>();
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
