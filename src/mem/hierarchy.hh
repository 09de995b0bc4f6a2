/**
 * @file
 * The full memory hierarchy of the simulated machine.
 *
 * The geometry follows Table 2 of the paper: private 4-way 32 KB
 * L1I/L1D (3 cycles), private 4-way 256 KB unified L2 (8 cycles),
 * shared 8-way 8 MB NUCA L3 (18 cycles average), directory-based
 * coherence, and 128-entry iTLB/dTLB.
 *
 * A run can set only the values the appendix sweeps, which are
 * HierarchyParams' three fields: the L1I size (appendix Table 2:
 * 16/32/64 KB) and, for the two-level Config1/Config2 (appendix
 * Table 3), no private L2 and the LLC latency. Every other Table 2
 * value is a named constant in hierarchy.cc.
 *
 * The hierarchy returns *exposed stall cycles*:
 *  - instruction fetches expose the full miss latency (the frontend
 *    cannot run ahead of a missing fetch);
 *  - data reads expose a small fraction of the miss latency (OOO
 *    execution, LSQs and data prefetchers hide the rest — the paper
 *    makes exactly this argument in Section 2.2);
 *  - data writes retire through the store buffer and expose latency
 *    only for coherence (remote-dirty) transfers.
 */

#ifndef SCHEDTASK_MEM_HIERARCHY_HH
#define SCHEDTASK_MEM_HIERARCHY_HH

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/prefetcher.hh"
#include "mem/tlb.hh"
#include "mem/trace_cache.hh"

namespace schedtask
{

/** Is the executing code application or OS? Used to split stats. */
enum class ExecClass : unsigned { App = 0, Os = 1 };

/** Number of ExecClass values. */
inline constexpr unsigned numExecClasses = 2;

/** Hit/access counters for one access stream. */
struct AccessCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    /** Hit ratio in [0,1]; 1 when never accessed. */
    double
    hitRate() const
    {
        return accesses == 0
            ? 1.0
            : static_cast<double>(hits) / static_cast<double>(accesses);
    }
};

/** The hierarchy values a run sets (see the file comment), per
 *  core for the private levels; the core count is MemHierarchy's
 *  constructor argument. */
struct HierarchyParams
{
    /** L1 i-cache capacity (4-way, 64 B lines). */
    std::uint64_t l1iBytes = 32 * 1024;

    /** Private unified L2 present? (false for Config1/Config2). */
    bool hasPrivateL2 = true;

    /** Shared last-level cache latency (8 cycles in Config2). */
    Cycles llcLatency = 18;

    auto operator<=>(const HierarchyParams &) const = default;

    /** Paper Table 2 three-level hierarchy (also appendix Config3). */
    static HierarchyParams paperDefault();

    /** Appendix Config1: 2-level, shared 8 MB L2 at 18 cycles. */
    static HierarchyParams config1();

    /** Appendix Config2: 2-level, shared 8 MB L2 at 8 cycles. */
    static HierarchyParams config2();

    /** Why `hierarchy.l1iBytes` cannot be built (Cache::supports()
     *  rejects it), or nullopt. */
    std::optional<std::string> geometryError() const;
};

/**
 * Per-core L1s (+ optional private L2), shared LLC, coherence
 * directory, TLBs, optional instruction prefetcher and trace cache.
 */
class MemHierarchy : public PrefetchSink
{
  public:
    /** `params` on `num_cores` cores, each with its own private
     *  levels, TLBs and (when enabled) trace cache. */
    MemHierarchy(const HierarchyParams &params, unsigned num_cores);

    /**
     * Perform an instruction fetch of one cache line.
     *
     * @param core  fetching core
     * @param addr  byte address of the fetch block
     * @param cls   app or OS code (for stats split)
     * @return exposed stall cycles beyond the pipelined L1I hit
     */
    Cycles fetch(CoreId core, Addr addr, ExecClass cls);

    /**
     * Perform a data access.
     *
     * @param core  accessing core
     * @param addr  byte address
     * @param is_write store (true) or load (false)
     * @param cls   app or OS code (for stats split)
     * @return exposed stall cycles
     */
    Cycles data(CoreId core, Addr addr, bool is_write, ExecClass cls);

    /** Notify the prefetcher that a new task starts on a core. */
    void onTaskStart(CoreId core, std::uint64_t task_token);

    /** Attach the call-graph prefetcher (appendix Fig. 2). */
    void setPrefetcher(std::unique_ptr<CallGraphPrefetcher> pf);

    /** Enable per-core trace caches (appendix Fig. 3). */
    void enableTraceCaches(const TraceCacheParams &params);

    /** True when an L1 i-cache of this core holds the line. */
    bool icacheContains(CoreId core, Addr addr) const;

    // PrefetchSink interface.
    void installInstLine(CoreId core, Addr line_addr) override;

    /** L1 i-cache counters for one class. */
    const AccessCounts &iCounts(ExecClass cls) const;

    /** L1 d-cache counters for one class. */
    const AccessCounts &dCounts(ExecClass cls) const;

    /** Overall L1 i-cache counters (both classes summed). */
    AccessCounts iCountsTotal() const;

    /** Overall L1 d-cache counters (both classes summed). */
    AccessCounts dCountsTotal() const;

    /** Private unified L2 counters (fetch + data fills; zero when
     *  the hierarchy has no private L2). */
    const AccessCounts &l2Counts() const { return l2_counts_; }

    /** iTLB of a core (for hit-rate reporting). */
    const Tlb &itlb(CoreId core) const { return *itlbs_[core]; }

    /** dTLB of a core. */
    const Tlb &dtlb(CoreId core) const { return *dtlbs_[core]; }

    /** Aggregate iTLB hit rate across cores. */
    double itlbHitRate() const;

    /** Aggregate dTLB hit rate across cores. */
    double dtlbHitRate() const;

    /** Exposed instruction-fetch stall cycles accumulated. */
    Cycles fetchStallCycles() const { return fetch_stall_cycles_; }

    /** Exposed data-access stall cycles accumulated. */
    Cycles dataStallCycles() const { return data_stall_cycles_; }

    /** Coherence invalidations sent so far. */
    std::uint64_t coherenceInvalidations() const
    {
        return coherence_invalidations_;
    }

    /** Remote-dirty cache-to-cache fills so far. */
    std::uint64_t remoteDirtyFills() const { return remote_dirty_fills_; }

    /** Prefetcher, if attached. */
    const CallGraphPrefetcher *prefetcher() const { return prefetcher_.get(); }

    /** Trace cache of a core (nullptr unless enabled). */
    const TraceCache *
    traceCache(CoreId core) const
    {
        return trace_caches_.empty() ? nullptr
                                     : trace_caches_[core].get();
    }

    /**
     * Structural cache invariants, enforced by the checked preset at
     * every epoch boundary during whole-figure runs: every level
     * holds at most capacity valid blocks and no set carries two
     * valid copies of one tag (see common/invariants.hh).
     */
    void checkCacheInvariants() const;

    /** Reset all statistics (after warmup), keeping cache contents. */
    void resetStats();

  private:
    /** L1I miss: frontend bubble + L2/LLC walk + L1I fill. */
    Cycles fetchMiss(CoreId core, Addr line_tag);

    /** Fetch path with trace caches and/or a prefetcher attached
     *  (the appendix configurations): kept out of line, off the
     *  hot path. `stall` is the already-paid iTLB cost. */
    Cycles fetchAux(CoreId core, Addr addr, ExecClass cls,
                    Cycles stall);

    /** Data path beyond the L1D read hit: directory consult,
     *  coherence, fills. Returns the stall
     *  cycles beyond the already-paid dTLB cost. */
    Cycles dataSlow(CoreId core, Addr addr, bool is_write,
                    ExecClass cls, Addr line_tag);

    /** Shared fill path below a missing private hierarchy. The LLC
     *  is probed with the precomputed line tag (address / 64). */
    Cycles fillFromShared(CoreId core, Addr line_tag, bool &llc_hit);

    HierarchyParams params_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    Cache llc_;
    CoherenceDirectory directory_;
    std::vector<std::unique_ptr<Tlb>> itlbs_;
    std::vector<std::unique_ptr<Tlb>> dtlbs_;
    std::unique_ptr<CallGraphPrefetcher> prefetcher_;
    std::vector<std::unique_ptr<TraceCache>> trace_caches_;

    /** Exposed read-miss stalls per fill source and the exposed dTLB
     *  walk stall: the llround(latency * (1 - hide factor)) results,
     *  precomputed in the constructor (see dataSlow / data). */
    Cycles exposed_l2_fill_ = 0;
    Cycles exposed_llc_fill_ = 0;
    Cycles exposed_mem_fill_ = 0;
    Cycles exposed_remote_fill_ = 0;
    Cycles exposed_dtlb_walk_ = 0;

    AccessCounts i_counts_[numExecClasses];
    AccessCounts d_counts_[numExecClasses];
    AccessCounts l2_counts_;
    Cycles fetch_stall_cycles_ = 0;
    Cycles data_stall_cycles_ = 0;
    std::uint64_t coherence_invalidations_ = 0;
    std::uint64_t remote_dirty_fills_ = 0;
};

inline Cycles
MemHierarchy::fetch(CoreId core, Addr addr, ExecClass cls)
{
    Cycles stall = itlbs_[core]->translate(addr);
    AccessCounts &counts = i_counts_[static_cast<unsigned>(cls)];
    ++counts.accesses;

    if (prefetcher_ != nullptr || !trace_caches_.empty()) {
        stall = fetchAux(core, addr, cls, stall);
    } else {
        // One tag split, shared by the L1I, L2 and LLC probes (they
        // all use line blocks; see the geometry constants in
        // hierarchy.cc). The probe and the miss fill share one merged
        // set scan; filling before the L2/LLC walk instead of after
        // it is unobservable (nothing in that walk reads the L1I).
        const Addr line_tag = lineNumOf(addr);
        bool hit = l1i_[core]->mruIsTag(line_tag);
        if (!hit)
            l1i_[core]->accessOrInsertTag(line_tag, hit);
        if (hit)
            ++counts.hits;
        else
            stall += fetchMiss(core, line_tag);
    }
    fetch_stall_cycles_ += stall;
    return stall;
}

inline Cycles
MemHierarchy::data(CoreId core, Addr addr, bool is_write, ExecClass cls)
{
    // A dTLB walk always costs the same miss penalty, so its exposed
    // (rounded) stall is a constructor-precomputed constant; the
    // common case (hit) skips the scaling altogether.
    Cycles stall =
        dtlbs_[core]->translate(addr) != 0 ? exposed_dtlb_walk_ : 0;
    AccessCounts &counts = d_counts_[static_cast<unsigned>(cls)];
    ++counts.accesses;

    // Read of a locally cached line: the directory consult is a
    // provable no-op, so skip it. The invariant is that a line in
    // this core's L1D always has this core's sharer bit set and no
    // remote dirty owner — every path that removes the line from the
    // L1D (capacity eviction -> onEvict, remote write ->
    // invalidateMask) also updates the directory, and a remote write
    // that installs a dirty owner always invalidates our copy first.
    // onRead would therefore find the bit already set, report no
    // remote-dirty fill, and never produce an invalidate mask.
    const Addr line_tag = lineNumOf(addr);
    if (!is_write && l1d_[core]->accessTag(line_tag))
        ++counts.hits;
    else
        stall += dataSlow(core, addr, is_write, cls, line_tag);
    data_stall_cycles_ += stall;
    return stall;
}

} // namespace schedtask

#endif // SCHEDTASK_MEM_HIERARCHY_HH
