#include "mem/hierarchy.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace schedtask
{

HierarchyParams
HierarchyParams::paperDefault(unsigned num_cores)
{
    HierarchyParams p;
    p.numCores = num_cores;
    return p;
}

HierarchyParams
HierarchyParams::config1(unsigned num_cores)
{
    HierarchyParams p;
    p.numCores = num_cores;
    p.hasPrivateL2 = false;
    p.llc = CacheParams{8 * 1024 * 1024, 8, lineBytes, 18};
    return p;
}

HierarchyParams
HierarchyParams::config2(unsigned num_cores)
{
    HierarchyParams p = config1(num_cores);
    p.llc.latency = 8;
    return p;
}

std::optional<std::string>
HierarchyParams::geometryError() const
{
    // The fetch/data hot paths share one line tag per access across
    // the L1/L2/LLC probes, so those levels must use line blocks.
    const auto check = [](const char *level, const CacheParams &p,
                          bool line_grain) -> std::optional<std::string> {
        const std::string name = std::string("hierarchy.") + level + ": ";
        if (!Cache::supports(p)) {
            return name + std::to_string(p.sizeBytes) + " B, "
                + std::to_string(p.assoc) + "-way, "
                + std::to_string(p.blockBytes)
                + " B blocks is not a supported cache geometry (the model "
                  "supports 4 or 8 ways and a power-of-two number of sets)";
        }
        if (line_grain && p.blockBytes != lineBytes) {
            return name + std::to_string(p.blockBytes)
                + " B blocks; the L1, L2 and LLC levels must use "
                + std::to_string(lineBytes) + " B blocks";
        }
        return std::nullopt;
    };
    std::optional<std::string> error;
    if ((error = check("l1i", l1i, true)) || (error = check("l1d", l1d, true))
        || (hasPrivateL2 && (error = check("l2", l2, true)))
        || (error = check("llc", llc, true))
        || (error = check("itlb", itlb.cacheParams(), false))
        || (error = check("dtlb", dtlb.cacheParams(), false)))
        return error;
    return std::nullopt;
}

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : params_(params), llc_(params.llc), directory_(params.numCores)
{
    SCHEDTASK_ASSERT(params_.numCores >= 1, "need at least one core");
    const std::optional<std::string> geometry = params_.geometryError();
    SCHEDTASK_ASSERT(!geometry, *geometry);
    l1i_.reserve(params_.numCores);
    l1d_.reserve(params_.numCores);
    itlbs_.reserve(params_.numCores);
    dtlbs_.reserve(params_.numCores);
    for (unsigned c = 0; c < params_.numCores; ++c) {
        l1i_.push_back(std::make_unique<Cache>(params_.l1i));
        l1d_.push_back(std::make_unique<Cache>(params_.l1d));
        if (params_.hasPrivateL2)
            l2_.push_back(std::make_unique<Cache>(params_.l2));
        itlbs_.push_back(std::make_unique<Tlb>(params_.itlb));
        dtlbs_.push_back(std::make_unique<Tlb>(params_.dtlb));
    }

    // A data-read miss exposes llround(fill_latency * (1 - hide)).
    // The fill latency takes one of four values (one per fill
    // source), so the rounded results are precomputed here — the
    // miss path then just picks one instead of scaling through
    // floating point per miss.
    const auto exposedRead = [this](Cycles fill_latency) {
        const double expose = 1.0 - params_.dataHideFactor;
        return static_cast<Cycles>(std::llround(
            static_cast<double>(fill_latency) * expose));
    };
    exposed_l2_fill_ = exposedRead(params_.l2.latency);
    exposed_llc_fill_ = exposedRead(params_.llc.latency);
    exposed_mem_fill_ =
        exposedRead(params_.llc.latency + params_.memLatency);
    exposed_remote_fill_ = exposedRead(params_.remoteFillLatency);
    // Same for the dTLB walk: a miss always costs dtlb.missPenalty.
    exposed_dtlb_walk_ = static_cast<Cycles>(std::llround(
        static_cast<double>(params_.dtlb.missPenalty)
        * (1.0 - params_.dtlbHideFactor)));
}

Cycles
MemHierarchy::fillFromShared(CoreId core, Addr line_tag, bool &llc_hit)
{
    // Probe and fill share one set scan; LLC evictions are silent
    // (clean shared data, no directory state below the LLC).
    (void)core;
    llc_hit = false;
    llc_.accessOrInsertTag(line_tag, llc_hit);
    if (llc_hit)
        return params_.llc.latency;
    return params_.llc.latency + params_.memLatency;
}

Cycles
MemHierarchy::fetchMiss(CoreId core, Addr line_tag)
{
    // L1I miss: walk the lower levels, exposing the full latency
    // plus the frontend refill bubble. The caller fills the L1I (see
    // fetch()'s merged probe and fetchAux). The L2 probe and fill
    // share one scan too — filling before the LLC walk instead of
    // after it is unobservable (the walk never reads this L2, and L2
    // evictions are silent).
    Cycles stall = params_.frontendBubbleCycles;
    if (params_.hasPrivateL2) {
        ++l2_counts_.accesses;
        bool l2_hit = false;
        l2_[core]->accessOrInsertTag(line_tag, l2_hit);
        if (l2_hit) {
            ++l2_counts_.hits;
            stall += params_.l2.latency;
        } else {
            bool llc_hit = false;
            stall += fillFromShared(core, line_tag, llc_hit);
        }
    } else {
        bool llc_hit = false;
        stall += fillFromShared(core, line_tag, llc_hit);
    }
    return stall;
}

Cycles
MemHierarchy::fetchAux(CoreId core, Addr addr, ExecClass cls,
                       Cycles stall)
{
    const Addr line = lineAddrOf(addr);
    const Addr line_tag = lineNumOf(addr);
    AccessCounts &counts = i_counts_[static_cast<unsigned>(cls)];

    if (!trace_caches_.empty() && trace_caches_[core]->access(line)) {
        // Trace-cache hit: served without touching the i-cache.
        ++counts.hits;
        return stall;
    }

    const bool hit = l1i_[core]->accessTag(line_tag);
    if (prefetcher_)
        prefetcher_->onFetch(core, line, hit, *this);
    if (hit) {
        ++counts.hits;
        return stall;
    }
    const Cycles miss = fetchMiss(core, line_tag);
    // Fill after the walk, as the pre-merge code did: a prefetcher's
    // installInstLine may have touched this L1I during onFetch above,
    // so the fill order is observable on this path.
    l1i_[core]->insertTag(line_tag);
    return stall + miss;
}

Cycles
MemHierarchy::dataSlow(CoreId core, Addr addr, bool is_write,
                       ExecClass cls, Addr line_tag)
{
    const Addr line = lineAddrOf(addr);
    const DirectoryOutcome outcome = is_write
        ? directory_.onWrite(core, line)
        : directory_.onRead(core, line);

    if (outcome.invalidateMask != 0) {
        std::uint64_t mask = outcome.invalidateMask;
        while (mask != 0) {
            const unsigned victim =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            l1d_[victim]->invalidate(line);
            if (params_.hasPrivateL2)
                l2_[victim]->invalidate(line);
            ++coherence_invalidations_;
        }
    }

    AccessCounts &counts = d_counts_[static_cast<unsigned>(cls)];
    const bool local_hit = !is_write
        ? false // read path already probed in data() and missed
        : l1d_[core]->accessTag(line_tag) && !outcome.remoteDirtyFill;

    if (local_hit) {
        ++counts.hits;
        return 0;
    }

    // Fill path. Remote-dirty lines come from the owner's cache.
    // Each fill source's exposed read latency is precomputed in the
    // constructor (the llround of that source's fill latency), so the
    // floating-point scaling is off the per-miss path. The L2 probe
    // and fill share one scan, as on the fetch side.
    Cycles exposed_fill;
    if (outcome.remoteDirtyFill) {
        ++remote_dirty_fills_;
        l1d_[core]->invalidate(line); // stale copy, if any
        exposed_fill = exposed_remote_fill_;
    } else if (params_.hasPrivateL2) {
        ++l2_counts_.accesses;
        bool l2_hit = false;
        l2_[core]->accessOrInsertTag(line_tag, l2_hit);
        if (l2_hit) {
            ++l2_counts_.hits;
            exposed_fill = exposed_l2_fill_;
        } else {
            bool llc_hit = false;
            fillFromShared(core, line_tag, llc_hit);
            exposed_fill =
                llc_hit ? exposed_llc_fill_ : exposed_mem_fill_;
        }
    } else {
        bool llc_hit = false;
        fillFromShared(core, line_tag, llc_hit);
        exposed_fill = llc_hit ? exposed_llc_fill_ : exposed_mem_fill_;
    }
    const std::optional<Addr> evicted = l1d_[core]->insertTag(line_tag);
    if (evicted)
        directory_.onEvict(core, *evicted);

    if (is_write) {
        // Stores retire through the store buffer; only coherence
        // transfers expose latency (the fill above was the remote
        // transfer exactly when remoteDirtyFill is set).
        return outcome.remoteDirtyFill ? params_.remoteFillLatency / 2
                                       : 0;
    }

    return exposed_fill;
}

void
MemHierarchy::onTaskStart(CoreId core, std::uint64_t task_token)
{
    if (prefetcher_)
        prefetcher_->onTaskStart(core, task_token, *this);
}

void
MemHierarchy::setPrefetcher(std::unique_ptr<InstPrefetcher> pf)
{
    prefetcher_ = std::move(pf);
}

void
MemHierarchy::enableTraceCaches(const TraceCacheParams &params)
{
    trace_caches_.clear();
    trace_caches_.reserve(params_.numCores);
    for (unsigned c = 0; c < params_.numCores; ++c)
        trace_caches_.push_back(std::make_unique<TraceCache>(params));
}

bool
MemHierarchy::icacheContains(CoreId core, Addr addr) const
{
    return l1i_[core]->contains(lineAddrOf(addr));
}

void
MemHierarchy::installInstLine(CoreId core, Addr line_addr)
{
    const Addr line_tag = lineNumOf(line_addr);
    if (!l1i_[core]->containsTag(line_tag))
        l1i_[core]->insertTag(line_tag);
    if (params_.hasPrivateL2 && !l2_[core]->containsTag(line_tag))
        l2_[core]->insertTag(line_tag);
}

const AccessCounts &
MemHierarchy::iCounts(ExecClass cls) const
{
    return i_counts_[static_cast<unsigned>(cls)];
}

const AccessCounts &
MemHierarchy::dCounts(ExecClass cls) const
{
    return d_counts_[static_cast<unsigned>(cls)];
}

AccessCounts
MemHierarchy::iCountsTotal() const
{
    AccessCounts total;
    for (const auto &c : i_counts_) {
        total.accesses += c.accesses;
        total.hits += c.hits;
    }
    return total;
}

AccessCounts
MemHierarchy::dCountsTotal() const
{
    AccessCounts total;
    for (const auto &c : d_counts_) {
        total.accesses += c.accesses;
        total.hits += c.hits;
    }
    return total;
}

double
MemHierarchy::itlbHitRate() const
{
    std::uint64_t acc = 0, hit = 0;
    for (const auto &t : itlbs_) {
        acc += t->accesses();
        hit += t->hits();
    }
    return acc == 0 ? 1.0
                    : static_cast<double>(hit) / static_cast<double>(acc);
}

double
MemHierarchy::dtlbHitRate() const
{
    std::uint64_t acc = 0, hit = 0;
    for (const auto &t : dtlbs_) {
        acc += t->accesses();
        hit += t->hits();
    }
    return acc == 0 ? 1.0
                    : static_cast<double>(hit) / static_cast<double>(acc);
}

void
MemHierarchy::checkCacheInvariants() const
{
    const auto check = [](const Cache &c, const char *what) {
        SCHEDTASK_ASSERT(c.validBlocks() <= c.capacityBlocks(),
                         what, " holds ", c.validBlocks(),
                         " valid blocks, capacity ",
                         c.capacityBlocks());
        SCHEDTASK_ASSERT(c.tagsUnique(),
                         what, " holds duplicate valid tags in a set");
        SCHEDTASK_ASSERT(c.recencyIsPermutation(),
                         what, " has a set whose recency word is not a "
                         "permutation of its ways");
    };
    for (unsigned c = 0; c < params_.numCores; ++c) {
        check(*l1i_[c], "L1I");
        check(*l1d_[c], "L1D");
        if (params_.hasPrivateL2)
            check(*l2_[c], "L2");
    }
    check(llc_, "LLC");
}

void
MemHierarchy::resetStats()
{
    for (auto &c : i_counts_)
        c = AccessCounts{};
    for (auto &c : d_counts_)
        c = AccessCounts{};
    l2_counts_ = AccessCounts{};
    coherence_invalidations_ = 0;
    remote_dirty_fills_ = 0;
    fetch_stall_cycles_ = 0;
    data_stall_cycles_ = 0;
    for (auto &t : itlbs_)
        t->resetStats();
    for (auto &t : dtlbs_)
        t->resetStats();
    for (auto &t : trace_caches_)
        t->resetStats();
    if (prefetcher_)
        prefetcher_->resetStats();
}

} // namespace schedtask
