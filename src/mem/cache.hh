/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * Used for L1I, L1D, private L2 and the shared LLC, for the iTLB and
 * dTLB (with page granularity), and for the trace cache. Only tags
 * are modelled — this is a trace-driven timing simulator, data
 * values never matter.
 *
 * Every cache the model builds has 4 ways (Table 2's L1s, L2 and
 * TLBs, the trace cache) or 8 (the LLC) and a power-of-two set
 * count, so that is all Cache supports (see supports()), and the
 * set index is a mask.
 *
 * This sits on the simulator's per-instruction hot path (every fetch
 * block probes the iTLB and L1I, every data access the dTLB and
 * L1D), so the lookup paths are engineered accordingly:
 *
 *  - an MRU fast path short-circuits the way scan when the probed
 *    block is the one touched last (tags embed the set bits, so a
 *    single compare suffices) — and it is a pure read: the cache's
 *    most recently touched way is by definition already the most
 *    recent in its set, so no recency update is needed at all;
 *  - a way is one 8-byte word — the block tag in the low 63 bits and
 *    a valid bit on top — so a hit test is one plain compare against
 *    tag | valid and a 4-way set is 32 bytes;
 *  - recency lives apart from the ways, as one *recency word* per
 *    set: the set's way indices, most recent first, one 4-bit nibble
 *    each (a uint16_t for 4 ways, a uint32_t for 8). The words sit at
 *    the tail of the ways' own allocation, so the recency state of
 *    a whole cache is half a byte per way and stays hot in the
 *    host's caches next to the tag arrays (which are probed at
 *    random addresses, so their footprint is what the simulator's
 *    own miss paths pay for).
 *
 * Set kernels. Every operation on one set (the hit scan, the recency
 * touch, the victim pick) is one function template over the way
 * count A. Each public operation switches once on the associativity
 * to A = 4 or 8. A fixed A gives the compiler a constant trip count,
 * so it fully unrolls the plain loops (and may vectorize them for
 * the target ISA). The hit scan builds a bit mask of the matching
 * ways and takes std::countr_zero; the victim is the lowest set bit
 * of the invalid-way mask or, when the set is full, the last nibble
 * of the recency word. A touch is a branch-free SWAR move-to-front
 * on the word: the zero-nibble test finds the way's position, and
 * the nibbles in front of it shift back one. Which way hits or is
 * the victim is data-random, so per-way branches would mispredict
 * constantly.
 *
 * Why the replacement state is exact. invalidate() clears only the
 * valid bit; an invalid way keeps its stale position in the recency
 * word, and whichever fill reuses it moves it to the front. Every
 * operation therefore keeps the relative order of the valid ways in
 * the word equal to their order of last touch — a touch or fill
 * moves one way to the front and leaves the others' order alone,
 * which is exactly what stamping with a fresh monotonic counter
 * does. Every replacement decision depends only on that order: the
 * victim of a full set is its least recently touched way, which is
 * the last position of the word since all ways are valid, and a set
 * with a hole fills its lowest invalid way whatever the order. A set
 * holds each valid tag at most once, so "the first matching way" and
 * "the lowest mask bit" name the same way. The kernels therefore
 * make bit-identical replacement decisions to a plain stamped scan
 * (tests/test_cache.cc checks them against one).
 */

#ifndef SCHEDTASK_MEM_CACHE_HH
#define SCHEDTASK_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/** Geometry of one cache level (its latency is the hierarchy's). */
struct CacheParams
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity (ways per set): 4 or 8. */
    unsigned assoc = 4;
    /** Bytes per block (64 for caches, 4096 for TLBs-as-caches). */
    std::uint64_t blockBytes = lineBytes;
};

/**
 * A tag-only set-associative cache.
 *
 * Addresses passed in are full byte addresses; the cache derives the
 * block/tag split from its parameters. Callers that already hold the
 * block tag (tagOf(addr), the address divided by blockBytes, e.g. a
 * hierarchy probing several line-grain levels with one precomputed
 * tag) can use the *Tag variants directly and skip the per-level
 * shift.
 */
class Cache
{
  public:
    /** Build a cache; params must satisfy supports(). */
    explicit Cache(const CacheParams &params);

    /** True for the geometries the set kernels implement: 4 or 8
     *  ways, power-of-two blocks and a power-of-two set count. */
    static bool supports(const CacheParams &params);

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
            // The way keeps its stale recency position (see the file
            // comment): the fill that reuses it moves it to the front.
            Way *base = &ways_[baseIndex<ways()>(tag)];
            const std::uint32_t hits = hitMask<ways()>(base, tag);
            if (hits != 0)
                base[std::countr_zero(hits)].raw &= tagMask;
        });
    }

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
     * True when every set's recency word is a permutation of its way
     * indices — the invariant the SWAR touch (which must find the
     * way's position) and the full-set victim pick rely on. Checked
     * alongside tagsUnique().
     */
    bool recencyIsPermutation() const;

    /** Number of sets. */
    std::uint64_t numSets() const { return num_sets_; }

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
    /** Field layout of a packed way: tag [0,63), valid bit 63. */
    static constexpr std::uint64_t validBit = std::uint64_t{1} << 63;
    static constexpr std::uint64_t tagMask = validBit - 1;

    /** One way in 8 bytes. An invalid way keeps its stale tag (it can
     *  never match a valid check). */
    struct Way
    {
        std::uint64_t raw = 0; // [valid:1][tag:63]
    };

    static bool isValid(const Way &w) { return (w.raw & validBit) != 0; }

    /** Valid-hit test: the way holds tag and its valid bit is set. */
    static bool
    wayHits(const Way &w, Addr tag)
    {
        return w.raw == (tag | validBit);
    }

    /** The recency word of kernel A: 4-bit way indices, most recent
     *  in the low nibble. */
    template <unsigned A>
    using OrderWord =
        std::conditional_t<A == 8, std::uint32_t, std::uint16_t>;

    /** One bit at the bottom of every nibble of an A-way word. */
    template <unsigned A>
    static constexpr std::uint64_t nibbleOnes =
        A == 8 ? 0x1111'1111 : 0x1111;

    /**
     * Call f with the set kernels' way count (4 or 8, see supports())
     * as a compile-time constant, so the kernels get a fixed trip
     * count the compiler unrolls. This is the only associativity
     * dispatch; every public set operation takes it exactly once.
     */
    template <typename F>
    auto
    withWays(F &&f) const
        -> decltype(f(std::integral_constant<unsigned, 4>{}))
    {
        if (params_.assoc == 4)
            return f(std::integral_constant<unsigned, 4>{});
        return f(std::integral_constant<unsigned, 8>{});
    }

    /** Index in ways_ of the first way of tag's set. */
    template <unsigned A>
    std::uint64_t
    baseIndex(Addr tag) const
    {
        return (tag & set_mask_) * A;
    }

    /** Bit w set iff way w of the set holds tag valid (at most one
     *  bit: a set never holds two valid copies of a tag). */
    template <unsigned A>
    std::uint32_t
    hitMask(const Way *base, Addr tag) const
    {
        const std::uint64_t key = tag | validBit;
        std::uint32_t mask = 0;
        for (unsigned w = 0; w < A; ++w)
            mask |= std::uint32_t{base[w].raw == key} << w;
        return mask;
    }

    /** Start of the recency positions, right after the last way. */
    unsigned char *
    order()
    {
        return reinterpret_cast<unsigned char *>(ways_.data() + num_ways_);
    }
    const unsigned char *
    order() const
    {
        return reinterpret_cast<const unsigned char *>(ways_.data()
                                                       + num_ways_);
    }

    /** The recency word of the set whose first way is
     *  ways_[base_index]: half a byte per way, after the last way of
     *  the cache. */
    unsigned char *
    orderOf(std::uint64_t base_index)
    {
        // A recency word is read as a little-endian integer whose
        // low nibble is position 0.
        static_assert(std::endian::native == std::endian::little);
        return order() + base_index / 2;
    }

    /**
     * Move way w to the front of an A-way recency word. The zero-
     * nibble test on word ^ (w in every nibble) marks w's position
     * exactly at its lowest set bit (a borrow only runs upward from
     * the zero nibble); the nibbles in front of it shift back one,
     * those behind it stay. Branch-free: where w sits is
     * data-random.
     */
    template <unsigned A>
    static std::uint64_t
    moveToFront(std::uint64_t order, unsigned w)
    {
        constexpr std::uint64_t ones = nibbleOnes<A>;
        const std::uint64_t x = order ^ (ones * w);
        const std::uint64_t zero = (x - ones) & ~x & (ones << 3);
        const unsigned pos = std::countr_zero(zero) - 3; // 4 * index
        const std::uint64_t front = (std::uint64_t{1} << pos) - 1;
        const std::uint64_t through = (front << 4) | 0xf;
        return (order & ~through) | ((order & front) << 4) | w;
    }

    /** Make way w the most recent of the set at base_index. */
    template <unsigned A>
    void
    touch(std::uint64_t base_index, unsigned w)
    {
        unsigned char *order = orderOf(base_index);
        OrderWord<A> word;
        std::memcpy(&word, order, sizeof(word));
        word = static_cast<OrderWord<A>>(moveToFront<A>(word, w));
        std::memcpy(order, &word, sizeof(word));
    }

    /** The least recently touched way of the set at base_index (the
     *  last recency position). */
    template <unsigned A>
    unsigned
    oldestWay(std::uint64_t base_index)
    {
        OrderWord<A> word;
        std::memcpy(&word, orderOf(base_index), sizeof(word));
        return word >> (4 * (A - 1));
    }

    /**
     * The hit half of every probe: on a hit in the set at
     * base_index, move the way to the front of the recency word
     * and make it the MRU way.
     */
    template <unsigned A>
    bool
    hitAndTouch(std::uint64_t base_index, Addr tag)
    {
        const std::uint32_t hits = hitMask<A>(&ways_[base_index], tag);
        if (hits == 0)
            return false;
        const unsigned w = std::countr_zero(hits);
        touch<A>(base_index, w);
        mru_index_ = base_index + w;
        return true;
    }

    /** Miss half of accessOrInsertTag(): victim selection and the
     *  move to the front of the recency order, for a tag known absent
     *  from the set at `base_index`. Out of line — the fill path is
     *  rare next to the inline hit scan in front of it. */
    template <unsigned A>
    std::optional<Addr> insertAbsent(std::uint64_t base_index, Addr tag);

    CacheParams params_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_; // num_sets_ - 1
    unsigned block_shift_;
    std::uint64_t num_ways_; // num_sets_ * assoc
    std::uint64_t mru_index_ = 0; // way of the last hit or insert
    /** num_ways_ ways, row-major by set, then the recency word of
     *  every set (see orderOf), padded to whole ways. */
    std::vector<Way> ways_;
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_CACHE_HH
