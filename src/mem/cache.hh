/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * Used for L1I, L1D, private L2 and the shared LLC, for the iTLB and
 * dTLB (with page granularity), and for the trace cache. Only tags
 * are modelled — this is a trace-driven timing simulator, data
 * values never matter.
 *
 * This sits on the simulator's per-instruction hot path (every fetch
 * block probes the iTLB and L1I, every data access the dTLB and
 * L1D), so the lookup paths are engineered accordingly:
 *
 *  - the set index is a mask when the set count is a power of two
 *    (every real configuration) instead of an integer division;
 *  - an MRU fast path short-circuits the way scan when the probed
 *    block is the one touched last (tags embed the set bits, so a
 *    single compare suffices) — and it is a pure read: the cache's
 *    most recently touched way is by definition already the most
 *    recent in its set, so no recency update is needed at all;
 *  - a way is one 8-byte word — the block tag in the low 58 bits,
 *    the way's recency *rank* within its set in the next 5, and a
 *    valid bit on top — so a 4-way set is 32 bytes and the whole tag
 *    store of a simulated machine stays close to the host's private
 *    caches (the tag arrays are probed at random addresses, so their
 *    footprint is what the simulator's own miss paths pay for).
 *
 * Set kernels. Every operation on one set (the hit scan, the recency
 * touch, the victim pick and the removal of a way from the recency
 * order) is one function template over the way count A. Each public
 * operation switches once on the associativity to A = 4 or 8 — every
 * Table 2 geometry — or to A = 0, which scans the runtime way count.
 * A fixed A gives the compiler a constant trip count, so it fully
 * unrolls the plain loops (and may vectorize them for the target
 * ISA). The bodies are branch-free over the ways: the hit scan
 * builds a bit mask of the matching ways and takes std::countr_zero;
 * the victim is the lowest set bit of the invalid-way mask or, when
 * the set is full, of the "valid and rank 0" mask. Which way hits or
 * is the victim is data-random, so per-way branches would mispredict
 * constantly; so would an early exit from the recency touch, which
 * measured slower than the full branch-free pass.
 *
 * Recency is kept as a per-set permutation: the valid ways of a set
 * always carry distinct ranks 0..valid-1, oldest first, and invalid
 * ways carry rank 0 (ranksDense() checks this). Touching a way moves
 * it to the top rank and shifts the ways above it down by one — the
 * relative order of all other ways is untouched, which is exactly
 * what stamping with a fresh monotonic counter does. Every
 * replacement decision depends only on that relative order (the LRU
 * victim is the set's rank-0 way), so the packed layout, the fast
 * paths and the mask kernels are exact: a set holds each valid tag at
 * most once, so "the first matching way" and "the lowest mask bit"
 * name the same way, and "the minimum-rank valid way" and "the valid
 * way of rank 0" do too. The kernels therefore leave bit-identical
 * replacement state to a plain stamped scan.
 */

#ifndef SCHEDTASK_MEM_CACHE_HH
#define SCHEDTASK_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity (ways per set). */
    unsigned assoc = 4;
    /** Bytes per block (64 for caches, 4096 for TLBs-as-caches). */
    std::uint64_t blockBytes = lineBytes;
    /** Access latency in cycles (applied by the hierarchy). */
    Cycles latency = 3;
};

/**
 * A tag-only set-associative cache.
 *
 * Addresses passed in are full byte addresses; the cache derives the
 * block/tag split from its parameters. Callers that already hold the
 * block tag (addr >> blockShift, e.g. a hierarchy probing several
 * line-grain levels with one precomputed tag) can use the *Tag
 * variants directly and skip the per-level shift.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address and update LRU on hit.
     *
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        return accessTag(tagOf(addr));
    }

    /** access() with a precomputed block tag. */
    bool
    accessTag(Addr tag)
    {
        // A tag is the full block address (it includes the set
        // bits), so one compare identifies the last-touched block.
        // The cache's most recent way is also its set's most recent,
        // so a hit here needs no recency update whatsoever.
        if (wayHits(ways_[mru_index_], tag))
            return true;
        return withWays([&](auto ways) {
            return hitAndTouch<ways()>(baseIndex<ways()>(tag), tag);
        });
    }

    /**
     * Insert the block containing addr, evicting a victim way.
     *
     * @return the byte address of the evicted block, or std::nullopt
     *         when no valid block was displaced (an invalid way was
     *         filled, or the block was already resident).
     */
    std::optional<Addr>
    insert(Addr addr)
    {
        return insertTag(tagOf(addr));
    }

    /** insert() with a precomputed block tag. */
    std::optional<Addr>
    insertTag(Addr tag)
    {
        bool hit = false;
        return accessOrInsertTag(tag, hit);
    }

    /**
     * One-scan probe-and-fill: behaves as accessTag() when the block
     * is resident (hit = true, LRU refreshed, nothing displaced) and
     * as insertTag() when it is not (hit = false, victim way filled).
     * Exactly equivalent to accessTag(tag) followed on a miss by
     * insertTag(tag) — merging just avoids walking the set twice on
     * the fill path, which the hierarchy's miss walks sit on. The
     * hit scan is the same kernel as accessTag()'s, so probe-style
     * callers pay nothing extra on hits.
     */
    std::optional<Addr>
    accessOrInsertTag(Addr tag, bool &hit)
    {
        return withWays([&](auto ways) -> std::optional<Addr> {
            const std::uint64_t base_index = baseIndex<ways()>(tag);
            hit = hitAndTouch<ways()>(base_index, tag);
            if (hit)
                return std::nullopt;
            return insertAbsent<ways()>(base_index, tag);
        });
    }

    /** Probe without disturbing LRU state. */
    bool
    contains(Addr addr) const
    {
        return containsTag(tagOf(addr));
    }

    /** contains() with a precomputed block tag. */
    bool
    containsTag(Addr tag) const
    {
        if (wayHits(ways_[mru_index_], tag))
            return true;
        return withWays([&](auto ways) {
            return hitMask<ways()>(&ways_[baseIndex<ways()>(tag)], tag)
                != 0;
        });
    }

    /** Invalidate the block containing addr if present. Inline:
     *  called for every coherence invalidation on the data path. */
    void
    invalidate(Addr addr)
    {
        const Addr tag = tagOf(addr);
        withWays([&](auto ways) {
            Way *base = &ways_[baseIndex<ways()>(tag)];
            const std::uint32_t hits = hitMask<ways()>(base, tag);
            if (hits == 0)
                return;
            const unsigned w = std::countr_zero(hits);
            dropRank<ways()>(base, rankOf(base[w]));
            base[w].raw &= tagMask; // clears valid and rank
        });
    }

    /** Invalidate every block. */
    void flush();

    /** Number of currently valid blocks. */
    std::uint64_t validBlocks() const;

    /** Maximum number of valid blocks (sets * assoc). */
    std::uint64_t
    capacityBlocks() const
    {
        return num_sets_ * params_.assoc;
    }

    /**
     * True when no set holds two valid copies of one tag and no set
     * exceeds its associativity — the structural invariant the
     * checked preset verifies during whole-figure runs.
     */
    bool tagsUnique() const;

    /**
     * True when in every set the valid ways carry distinct ranks
     * 0..valid-1 and the invalid ways carry rank 0 — the recency
     * invariant the victim pick and the branch-free rank updates
     * rely on. Checked alongside tagsUnique().
     */
    bool ranksDense() const;

    /** Configured parameters. */
    const CacheParams &params() const { return params_; }

    /** Number of sets. */
    std::uint64_t numSets() const { return num_sets_; }

    /** log2(blockBytes): callers precomputing tags share this. */
    unsigned blockShift() const { return block_shift_; }

    /** The block tag (full block address) of a byte address. */
    Addr tagOf(Addr addr) const { return addr >> block_shift_; }

    /**
     * True when the cache's most recently touched way holds `tag`
     * valid. A repeat probe of that block is then a pure read (see
     * accessTag), so the TLB and the fetch path test it first and
     * skip the set scan.
     */
    bool
    mruIsTag(Addr tag) const
    {
        return wayHits(ways_[mru_index_], tag);
    }

  private:
    /** Field layout of a packed way: tag [0,58), rank [58,63),
     *  valid bit 63. 58 tag bits cover every byte address at line
     *  grain (2^64 / 64); 5 rank bits support assoc up to 32. */
    static constexpr unsigned rankShift = 58;
    static constexpr unsigned validShift = 63;
    static constexpr std::uint64_t tagMask =
        (std::uint64_t{1} << rankShift) - 1;
    static constexpr std::uint64_t rankOne =
        std::uint64_t{1} << rankShift;
    static constexpr std::uint64_t validBit =
        std::uint64_t{1} << validShift;
    static constexpr std::uint64_t rankField = validBit - rankOne;
    static constexpr unsigned maxAssoc = 32;

    /**
     * One way in 8 bytes. An invalid way keeps its stale tag (it can
     * never match a valid check) and rank 0.
     */
    struct Way
    {
        std::uint64_t raw = 0; // [valid:1][rank:5][tag:58]
    };

    static bool isValid(const Way &w) { return (w.raw & validBit) != 0; }

    /** Recency rank within the set: 0 = oldest valid way. */
    static std::uint64_t
    rankOf(const Way &w)
    {
        return (w.raw >> rankShift) & (maxAssoc - 1);
    }

    /** Valid-hit test: tag bits equal and valid bit set. */
    static bool
    wayHits(const Way &w, Addr tag)
    {
        // Masking out the rank field leaves [valid][tag], which
        // equals tag | validBit iff the way holds the tag valid (tags
        // fit the 58-bit field: insertAbsent asserts it).
        return (w.raw & ~rankField) == (tag | validBit);
    }

    /**
     * Call f with the set kernels' way count as a compile-time
     * constant: 4 and 8 (the Table 2 geometries) get a fixed trip
     * count the compiler unrolls, anything else the runtime one
     * (0). This switch is the only associativity dispatch; every
     * public set operation takes it exactly once.
     */
    template <typename F>
    auto
    withWays(F &&f) const
        -> decltype(f(std::integral_constant<unsigned, 0>{}))
    {
        switch (params_.assoc) {
          case 4:
            return f(std::integral_constant<unsigned, 4>{});
          case 8:
            return f(std::integral_constant<unsigned, 8>{});
          default:
            return f(std::integral_constant<unsigned, 0>{});
        }
    }

    /** The number of ways kernel A scans. */
    template <unsigned A>
    unsigned
    waysOf() const
    {
        return A != 0 ? A : params_.assoc;
    }

    /** Index in ways_ of the first way of tag's set. */
    template <unsigned A>
    std::uint64_t
    baseIndex(Addr tag) const
    {
        // Power-of-two set counts (every real geometry) use the
        // mask; the division survives only for odd TLB sizes.
        const std::uint64_t set =
            set_mask_ != 0 ? (tag & set_mask_) : (tag % num_sets_);
        return set * waysOf<A>();
    }

    /** Bit w set iff way w of the set holds tag valid (at most one
     *  bit: a set never holds two valid copies of a tag). */
    template <unsigned A>
    std::uint32_t
    hitMask(const Way *base, Addr tag) const
    {
        const std::uint64_t key = tag | validBit;
        std::uint32_t mask = 0;
        for (unsigned w = 0; w < waysOf<A>(); ++w)
            mask |= std::uint32_t{(base[w].raw & ~rankField) == key}
                << w;
        return mask;
    }

    /**
     * Remove rank `rank` from the set's recency order: every way
     * ranked above it slides down one. Invalid ways are rank 0 and
     * never test as above, nor does the removed way itself; a rank
     * of maxAssoc or more removes nothing.
     */
    template <unsigned A>
    void
    dropRank(Way *base, std::uint64_t rank)
    {
        for (unsigned v = 0; v < waysOf<A>(); ++v)
            base[v].raw -= std::uint64_t{rankOf(base[v]) > rank}
                << rankShift;
    }

    /**
     * Make way w the most recent of its set: ways ranked above it
     * slide down one, w takes the top rank. The relative order of
     * all other ways is untouched — exactly a fresh-stamp touch.
     * Branch-free over the ways: which ways sit above w is
     * data-random, so a conditional store would mispredict on the
     * hottest path in the simulator. Invalid ways always carry rank
     * 0, so they never test as "above" and need no validity check;
     * neither does w itself.
     */
    template <unsigned A>
    void
    touchWay(Way *base, unsigned w)
    {
        const std::uint64_t rank = rankOf(base[w]);
        std::uint64_t above = 0;
        for (unsigned v = 0; v < waysOf<A>(); ++v) {
            const std::uint64_t is_above = rankOf(base[v]) > rank;
            base[v].raw -= is_above << rankShift;
            above += is_above;
        }
        base[w].raw += above << rankShift;
    }

    /**
     * The hit half of every probe: on a hit in the set at
     * base_index, refresh the way's recency and make it the MRU way.
     */
    template <unsigned A>
    bool
    hitAndTouch(std::uint64_t base_index, Addr tag)
    {
        Way *base = &ways_[base_index];
        const std::uint32_t hits = hitMask<A>(base, tag);
        if (hits == 0)
            return false;
        const unsigned w = std::countr_zero(hits);
        touchWay<A>(base, w);
        mru_index_ = base_index + w;
        return true;
    }

    /** Miss half of accessOrInsertTag(): victim selection and the
     *  recency-order insertion, for a tag known absent from the set
     *  at `base_index`. Out of line — the fill path is rare next to
     *  the inline hit scan in front of it. */
    template <unsigned A>
    std::optional<Addr> insertAbsent(std::uint64_t base_index, Addr tag);

    CacheParams params_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_; // num_sets_ - 1 when a power of two, else 0
    unsigned block_shift_;
    std::uint64_t mru_index_ = 0; // way of the last hit or insert
    std::vector<Way> ways_; // num_sets_ * assoc, row-major
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_CACHE_HH
