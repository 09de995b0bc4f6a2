/**
 * @file
 * Translation lookaside buffer model.
 *
 * The paper's baseline has 128-entry iTLB and dTLB (Table 2) and
 * reports TLB hit-rate improvements as a secondary result of the
 * reduced per-core footprints (Section 6.1, "Other statistics").
 * A TLB is modelled as a set-associative Cache over page frames
 * (so it takes the Cache geometries: 4 or 8 ways and a power-of-two
 * number of sets), with a fixed page-walk penalty on miss.
 */

#ifndef SCHEDTASK_MEM_TLB_HH
#define SCHEDTASK_MEM_TLB_HH

#include "common/types.hh"
#include "mem/cache.hh"

namespace schedtask
{

/** Configuration of one TLB. */
struct TlbParams
{
    /** Number of entries. */
    unsigned entries = 128;
    /** Associativity. */
    unsigned assoc = 4;
    /** Cycles added to the access on a TLB miss (page walk). */
    Cycles missPenalty = 40;
};

/**
 * A TLB: page-granularity tag cache plus a miss penalty.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate the page containing addr.
     *
     * Inline: this sits on the per-access hot path (every fetch
     * block and every data access translates first), and the hit
     * path is just the cache's own inline MRU probe.
     *
     * @return extra cycles incurred (0 on hit, missPenalty on miss).
     */
    Cycles
    translate(Addr addr)
    {
        ++accesses_;
        const Addr tag = cache_.tagOf(addr);
        // MRU repeat first (a pure read, as in Cache::accessTag),
        // then one merged scan that refreshes on a hit and fills on
        // a miss — identical state to access() + insert() on miss,
        // without walking the set twice.
        if (cache_.mruIsTag(tag)) {
            ++hits_;
            return 0;
        }
        bool hit = false;
        cache_.accessOrInsertTag(tag, hit);
        if (hit) {
            ++hits_;
            return 0;
        }
        return params_.missPenalty;
    }

    /** Total lookups so far. */
    std::uint64_t accesses() const { return accesses_; }

    /** Lookups that hit. */
    std::uint64_t hits() const { return hits_; }

    /** Hit ratio in [0,1]; 1 when never accessed. */
    double hitRate() const;

    /** Reset the statistics, keeping contents. */
    void
    resetStats()
    {
        accesses_ = 0;
        hits_ = 0;
    }

  private:
    TlbParams params_;
    Cache cache_;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_TLB_HH
