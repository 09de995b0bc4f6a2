/**
 * @file
 * Tests for the set-associative cache: hit/miss behaviour, LRU
 * replacement, invalidation, geometry derivation, and a differential
 * check of the set kernels against a naive reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/cache.hh"

using namespace schedtask;

namespace
{

CacheParams
smallCache()
{
    // 4 sets x 4 ways x 64 B = 1 KB; addresses 0x100 apart share a
    // set.
    CacheParams p;
    p.sizeBytes = 1024;
    p.assoc = 4;
    p.blockBytes = 64;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1000));
}

TEST(Cache, GeometryDerivation)
{
    Cache c(CacheParams{32 * 1024, 4, 64});
    EXPECT_EQ(c.numSets(), 32u * 1024 / (4 * 64));
}

TEST(Cache, SupportsOnlyFourOrEightWaysAndPowerOfTwoSets)
{
    EXPECT_TRUE(Cache::supports(CacheParams{32 * 1024, 4, 64}));
    EXPECT_TRUE(Cache::supports(CacheParams{8 << 20, 8, 64}));
    EXPECT_TRUE(Cache::supports(CacheParams{256, 4, 64})); // 1 set
    EXPECT_TRUE(Cache::supports(CacheParams{32 * 256, 4, 256}));
    EXPECT_FALSE(Cache::supports(CacheParams{32 * 1024, 2, 64}));
    EXPECT_FALSE(Cache::supports(CacheParams{32 * 1024, 16, 64}));
    EXPECT_FALSE(Cache::supports(CacheParams{48 * 1024, 4, 64}));
    EXPECT_FALSE(Cache::supports(CacheParams{32 * 1024, 4, 48}));
    EXPECT_FALSE(Cache::supports(CacheParams{1000, 4, 64}));
    EXPECT_FALSE(Cache::supports(CacheParams{0, 4, 64}));
    EXPECT_FALSE(Cache::supports(CacheParams{128, 4, 64})); // < 1 set
    EXPECT_FALSE(Cache::supports(
        CacheParams{1024, 4, std::uint64_t{1} << 62})); // no overflow
    EXPECT_DEATH(Cache(CacheParams{32 * 1024, 2, 64}),
                 "unsupported cache geometry");
}

TEST(Cache, SameSetDifferentTagsCoexistUpToAssoc)
{
    Cache c(smallCache()); // 4 sets, 4 ways
    // Four addresses in the same set (stride = sets * block = 256).
    for (Addr a = 0; a < 0x400; a += 0x100)
        c.insert(a);
    for (Addr a = 0; a < 0x400; a += 0x100)
        EXPECT_TRUE(c.access(a)) << a;
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache());
    for (Addr a = 0; a < 0x400; a += 0x100)
        c.insert(a); // set 0, ways 0..3; 0x0 is LRU
    EXPECT_TRUE(c.access(0x0)); // 0x0 now MRU, 0x100 LRU
    const std::optional<Addr> evicted = c.insert(0x400); // evicts 0x100
    EXPECT_EQ(evicted, 0x100u);
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x200));
    EXPECT_TRUE(c.access(0x300));
    EXPECT_TRUE(c.access(0x400));
}

TEST(Cache, InsertIntoInvalidWayEvictsNothing)
{
    Cache c(smallCache());
    EXPECT_EQ(c.insert(0x40), std::nullopt);
}

TEST(Cache, EvictionOfAddressZeroIsReported)
{
    // Address 0 is a valid block address; eviction reporting must
    // distinguish "evicted block 0" from "evicted nothing".
    Cache c(smallCache());
    for (Addr a = 0; a < 0x400; a += 0x100)
        c.insert(a);
    c.access(0x100);
    c.access(0x300); // 0x0 is LRU
    const std::optional<Addr> evicted = c.insert(0x400);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0x0u);
}

TEST(Cache, ContainsDoesNotDisturbLru)
{
    Cache c(smallCache());
    for (Addr a = 0; a < 0x400; a += 0x100)
        c.insert(a);
    // Probing 0x0 must not promote it.
    EXPECT_TRUE(c.contains(0x0));
    c.insert(0x400); // LRU is still 0x0
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c(smallCache());
    c.insert(0x1000);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.access(0x1000));
}

TEST(Cache, InvalidateMissingIsNoop)
{
    Cache c(smallCache());
    c.invalidate(0xdead000); // must not crash
    EXPECT_EQ(c.validBlocks(), 0u);
}

TEST(Cache, SubBlockAddressesMapToSameBlock)
{
    Cache c(smallCache());
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1004));
    EXPECT_TRUE(c.access(0x103f));
}

TEST(Cache, DoubleInsertTouchesInsteadOfDuplicating)
{
    Cache c(smallCache());
    c.insert(0x0);
    c.insert(0x0);
    EXPECT_EQ(c.validBlocks(), 1u);
}

TEST(Cache, InvalidateThenReinsertDoesNotDuplicate)
{
    // Regression: an invalid hole earlier in the set must not shadow
    // a still-resident copy of the tag — the tag scan has to cover
    // every way before a victim is chosen, or the set ends up with
    // the same block valid twice.
    Cache c(smallCache());
    c.insert(0x0);   // set 0, way 0
    c.insert(0x100); // set 0, way 1
    c.invalidate(0x0); // hole in way 0
    c.insert(0x100); // resident in way 1: touch, don't refill way 0
    EXPECT_EQ(c.validBlocks(), 1u);
    EXPECT_TRUE(c.tagsUnique());
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, ValidBlocksNeverExceedsCapacityUnderChurn)
{
    // Deterministic churn of inserts, invalidations and touches; the
    // structural invariants the checked preset enforces must hold
    // after every step.
    Cache c(smallCache());
    for (Addr i = 0; i < 200; ++i) {
        c.insert((i * 0x40) % 0x800);
        if (i % 3 == 0)
            c.invalidate(((i / 2) * 0x40) % 0x800);
        if (i % 5 == 0)
            c.insert((i * 0x40) % 0x800); // double insert
        c.access(((i / 3) * 0x40) % 0x800);
        ASSERT_LE(c.validBlocks(), c.capacityBlocks()) << i;
        ASSERT_TRUE(c.tagsUnique()) << i;
    }
}

TEST(Cache, CyclicSweepLargerThanCacheAlwaysMisses)
{
    // Classic LRU adversary: sweeping N+1 blocks through an
    // N-block fully-conflicting set never hits.
    Cache c(smallCache()); // 16 blocks total, set-conflicting stride
    const Addr stride = 256; // same set
    for (int round = 0; round < 3; ++round) {
        for (Addr i = 0; i < 5; ++i) { // 5 > 4 ways
            const Addr a = i * stride;
            EXPECT_FALSE(c.access(a));
            c.insert(a);
        }
    }
}

/** Property sweep: size/assoc combinations keep basic invariants. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, FillAndRecall)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheParams{size_kb * 1024ull, assoc, 64});
    const std::uint64_t blocks = size_kb * 1024ull / 64;
    // Fill the whole cache with sequential addresses.
    for (std::uint64_t i = 0; i < blocks; ++i)
        c.insert(i * 64);
    EXPECT_EQ(c.validBlocks(), blocks);
    // Everything present: sequential addresses spread evenly.
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_TRUE(c.access(i * 64));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{16, 4},
                      std::pair<unsigned, unsigned>{32, 4},
                      std::pair<unsigned, unsigned>{64, 8},
                      std::pair<unsigned, unsigned>{256, 4}));

TEST(CacheReplacement, LruDoubleInsertRefreshesStamp)
{
    // Re-inserting a resident block is a touch: it refreshes recency.
    Cache c(smallCache());
    for (Addr a = 0; a < 0x400; a += 0x100)
        c.insert(a);
    c.insert(0x0); // touch promotes 0x0
    EXPECT_EQ(c.insert(0x400), 0x100u);
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x100));
}

namespace
{

/**
 * Naive per-set reference model of Cache: each way keeps an explicit
 * last-touch stamp, and the victim is the first invalid way or else
 * the minimum-stamp valid way. No packing, no fast paths.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t sets, unsigned assoc, unsigned block_shift)
        : sets_(sets), assoc_(assoc), block_shift_(block_shift),
          ways_(sets * assoc)
    {
    }

    bool
    access(Addr addr)
    {
        RefWay *w = find(addr >> block_shift_);
        if (w == nullptr)
            return false;
        w->stamp = ++clock_;
        return true;
    }

    std::optional<Addr>
    accessOrInsert(Addr addr, bool &hit)
    {
        hit = access(addr);
        if (hit)
            return std::nullopt;
        const Addr tag = addr >> block_shift_;
        RefWay *set = &ways_[(tag % sets_) * assoc_];
        unsigned victim = assoc_;
        for (unsigned w = 0; w < assoc_ && victim == assoc_; ++w)
            if (!set[w].valid)
                victim = w;
        if (victim == assoc_) {
            victim = 0;
            for (unsigned w = 1; w < assoc_; ++w)
                if (set[w].stamp < set[victim].stamp)
                    victim = w;
        }
        std::optional<Addr> evicted;
        if (set[victim].valid)
            evicted = set[victim].tag << block_shift_;
        set[victim] = RefWay{true, tag, ++clock_};
        return evicted;
    }

    bool
    contains(Addr addr)
    {
        return find(addr >> block_shift_) != nullptr;
    }

    void
    invalidate(Addr addr)
    {
        if (RefWay *w = find(addr >> block_shift_))
            w->valid = false;
    }

  private:
    struct RefWay
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    RefWay *
    find(Addr tag)
    {
        RefWay *set = &ways_[(tag % sets_) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned assoc_;
    unsigned block_shift_;
    std::vector<RefWay> ways_;
    std::uint64_t clock_ = 0;
};

/**
 * Drive Cache and ReferenceCache through one seeded random sequence
 * of every public set operation and compare them after each op: the
 * hit result, the evicted address (address 0 included) and
 * contains(). It runs both supported associativities (4 and 8 ways)
 * at one set (a fully associative cache), a few sets and many, with
 * line (64 B), trace (256 B) and page (4 KB) blocks.
 */
void
checkAgainstReference()
{
    const unsigned assocs[] = {4, 8};
    const std::uint64_t set_counts[] = {1, 4, 64};
    const unsigned block_shifts[] = {6, 8, 12};
    Rng rng(0xcac4e);
    for (unsigned assoc : assocs) {
        for (std::uint64_t sets : set_counts) {
            for (unsigned shift : block_shifts) {
                const std::uint64_t block = std::uint64_t{1} << shift;
                Cache c(CacheParams{sets * assoc * block, assoc, block});
                ReferenceCache ref(sets, assoc, shift);
                const std::uint64_t capacity = sets * assoc;
                // Odd tags carry the top address bit, so the full
                // packed tag width is compared too.
                const Addr high = Addr{1} << (63 - shift);
                const std::uint64_t ops = 6 * capacity + 1000;
                for (std::uint64_t i = 0; i < ops; ++i) {
                    const Addr tag = rng.below(3 * capacity);
                    const Addr addr = ((tag & 1) != 0 ? tag | high : tag)
                            << shift
                        | rng.below(block);
                    // Streamed only when an assertion fails.
                    const auto where = [&] {
                        return ::testing::Message()
                            << "assoc " << assoc << " sets " << sets
                            << " block " << block << " op " << i
                            << " addr 0x" << std::hex << addr;
                    };
                    const std::uint64_t op = rng.below(1000);
                    if (op < 350) {
                        ASSERT_EQ(c.access(addr), ref.access(addr)) << where();
                    } else if (op < 600) {
                        bool hit = false;
                        bool ref_hit = false;
                        const std::optional<Addr> evicted =
                            c.accessOrInsertTag(c.tagOf(addr), hit);
                        ASSERT_EQ(evicted, ref.accessOrInsert(addr, ref_hit))
                            << where();
                        ASSERT_EQ(hit, ref_hit) << where();
                    } else if (op < 800) {
                        bool ref_hit = false;
                        ASSERT_EQ(c.insert(addr),
                                  ref.accessOrInsert(addr, ref_hit))
                            << where();
                    } else if (op < 900) {
                        // a pure contains(): only the check below
                    } else {
                        c.invalidate(addr);
                        ref.invalidate(addr);
                    }
                    ASSERT_EQ(c.contains(addr), ref.contains(addr))
                        << where();
                    if (i % 64 == 0 || i + 1 == ops) {
                        ASSERT_TRUE(c.recencyIsPermutation()) << where();
                        ASSERT_TRUE(c.tagsUnique()) << where();
                    }
                }
            }
        }
    }
}

} // namespace

TEST(CacheReference, Lru)
{
    checkAgainstReference();
}

TEST(Cache, RecencyPermutationThroughInvalidate)
{
    for (const unsigned assoc : {4u, 8u}) {
        SCOPED_TRACE(assoc);
        // 4 sets; addresses 0x100 apart share set 0.
        Cache c(CacheParams{4 * assoc * 64, assoc, 64});
        EXPECT_TRUE(c.recencyIsPermutation());
        c.insert(0x0);
        c.insert(0x100);
        c.invalidate(0x0);
        EXPECT_TRUE(c.recencyIsPermutation());
        c.insert(0x200);
        c.access(0x100);
        EXPECT_TRUE(c.recencyIsPermutation());
        for (Addr a = 0; a < 3 * assoc; ++a)
            c.insert(a * 0x100);
        c.invalidate(0x100);
        c.access(0x200);
        EXPECT_TRUE(c.recencyIsPermutation());
        for (Addr a = 0; a < 3 * assoc; ++a)
            c.invalidate(a * 0x100);
        EXPECT_TRUE(c.recencyIsPermutation());
        EXPECT_EQ(c.validBlocks(), 0u);
    }
}
