#include "sched/disagg_os.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "sim/thread.hh"

namespace schedtask
{

namespace
{

/** Stable small hash of a subsystem name. */
std::uint64_t
subsystemKey(const std::string &subsystem)
{
    return std::hash<std::string>{}(subsystem) | (std::uint64_t{1} << 63);
}

} // namespace

void
DisAggregateOSScheduler::attach(Machine &machine)
{
    QueueScheduler::attach(machine);
    region_load_.clear();
    region_freq_.clear();
    assignment_.clear();
}

std::uint64_t
DisAggregateOSScheduler::regionOf(const SuperFunction *sf)
{
    switch (sf->info->category) {
      case SfCategory::SystemCall:
        // The OS programmer groups handlers by subsystem: all
        // filesystem calls are one region, and so on.
        return subsystemKey(sf->info->subsystem);
      case SfCategory::Application:
        // Each application is its own region.
        return sf->type.raw();
      case SfCategory::Interrupt:
      case SfCategory::BottomHalf:
      default:
        // Unmanaged: no region.
        return 0;
    }
}

std::vector<CoreId>
DisAggregateOSScheduler::coresOfRegion(std::uint64_t region) const
{
    auto it = assignment_.find(region);
    return it == assignment_.end() ? std::vector<CoreId>{} : it->second;
}

CoreId
DisAggregateOSScheduler::choosePlacement(SuperFunction *sf,
                                         PlacementReason reason)
{
    (void)reason;
    const std::uint64_t region = regionOf(sf);
    if (region != 0) {
        auto it = assignment_.find(region);
        if (it != assignment_.end() && !it->second.empty()) {
            // Least-loaded core within the region.
            CoreId best = it->second.front();
            for (CoreId c : it->second)
                if (queueLen(c) < queueLen(best))
                    best = c;
            return best;
        }
    }
    // No assignment yet (first epoch) or unmanaged work: local core.
    return localCore(sf);
}

void
DisAggregateOSScheduler::onSliceEnd(CoreId core, const SuperFunction *sf,
                                    Cycles elapsed, std::uint64_t insts,
                                    const PageHeatmap &heatmap)
{
    (void)core;
    (void)insts;
    (void)heatmap;
    const std::uint64_t region = regionOf(sf);
    if (region != 0) {
        region_load_[region] += elapsed;
        ++region_freq_[region];
    }
}

void
DisAggregateOSScheduler::onEpoch()
{
    last_reassigned_ = false;
    if (region_load_.empty())
        return;

    // Micro-scheduling feedback: work still queued at the epoch
    // boundary counts as demand, so a saturated region attracts
    // more cores instead of freezing at the share its current
    // cores could serve (mirrors TAlloc's backlog term).
    std::unordered_map<std::uint64_t, Cycles> backlog;
    for (CoreId c = 0; c < numCores(); ++c) {
        for (const SuperFunction *sf : queueOf(c)) {
            const std::uint64_t region = regionOf(sf);
            if (region == 0)
                continue;
            auto lit = region_load_.find(region);
            auto fit = region_freq_.find(region);
            if (lit == region_load_.end()
                    || fit == region_freq_.end()
                    || fit->second == 0) {
                continue;
            }
            backlog[region] += lit->second / fit->second;
        }
    }
    for (const auto &[region, extra] : backlog) {
        region_load_[region] +=
            std::min(extra, region_load_[region]);
    }

    Cycles total = 0;
    for (const auto &[region, load] : region_load_)
        total += load;

    // Deterministic ordering: heaviest regions first.
    std::vector<std::pair<std::uint64_t, Cycles>> regions(
        region_load_.begin(), region_load_.end());
    std::stable_sort(regions.begin(), regions.end(),
                     [](const auto &a, const auto &b) {
                         if (a.second != b.second)
                             return a.second > b.second;
                         return a.first < b.first;
                     });

    assignment_.clear();
    CoreId next_core = 0;
    // Proportional contiguous assignment; every region gets at
    // least one core while cores remain, heavy regions get more.
    for (const auto &[region, load] : regions) {
        if (next_core >= numCores()) {
            // Out of cores: share the last one.
            assignment_[region] = {static_cast<CoreId>(numCores() - 1)};
            continue;
        }
        const double share = static_cast<double>(load)
            / static_cast<double>(total) * numCores();
        auto granted =
            static_cast<unsigned>(std::max(1.0, std::floor(share)));
        granted = std::min<unsigned>(granted, numCores() - next_core);
        std::vector<CoreId> cores;
        cores.reserve(granted);
        for (unsigned g = 0; g < granted; ++g)
            cores.push_back(next_core++);
        assignment_[region] = std::move(cores);
    }

    // Flooring leaves remainder cores; hand them to the heaviest
    // regions round-robin so no core stays unassigned by design.
    std::size_t ri = 0;
    while (next_core < numCores() && !regions.empty()) {
        assignment_[regions[ri % regions.size()].first].push_back(
            next_core++);
        ++ri;
    }

    region_load_.clear();
    region_freq_.clear();
    last_reassigned_ = true;
}

SchedEpochReport
DisAggregateOSScheduler::epochDecision() const
{
    SchedEpochReport report = QueueScheduler::epochDecision();
    report.allocTypes = static_cast<unsigned>(assignment_.size());
    report.allocCores = coveredCores(assignment_);
    report.reallocated = last_reassigned_;
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
registerDisAggregateOsTechnique(SchedulerRegistry &registry)
{
    SchedulerInfo info;
    info.name = "DisAggregateOS";
    info.description = "per-region core partitions rebuilt each epoch "
                       "by a zero-cost micro-scheduler (Lee 2013)";
    info.paperOrder = 3;
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<DisAggregateOSScheduler>();
    };
    registry.registerScheduler(std::move(info));
}

} // namespace schedtask
