#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace schedtask
{

namespace
{

unsigned
log2Exact(std::uint64_t v)
{
    SCHEDTASK_ASSERT(v != 0 && (v & (v - 1)) == 0,
                     "value must be a power of two, got ", v);
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    SCHEDTASK_ASSERT(params_.assoc > 0, "associativity must be positive");
    SCHEDTASK_ASSERT(params_.assoc <= maxAssoc,
                     "associativity ", params_.assoc,
                     " exceeds the packed-way rank field (max ",
                     maxAssoc, ")");
    SCHEDTASK_ASSERT(params_.sizeBytes % (params_.blockBytes * params_.assoc)
                         == 0,
                     "cache size must be a multiple of assoc * block size");
    num_sets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    SCHEDTASK_ASSERT(num_sets_ > 0, "cache must have at least one set");
    // Non-power-of-two set counts are allowed (e.g. a 24-entry TLB);
    // the index is then a modulo rather than a mask.
    set_mask_ = (num_sets_ & (num_sets_ - 1)) == 0 ? num_sets_ - 1 : 0;
    block_shift_ = log2Exact(params_.blockBytes);
    ways_.resize(num_sets_ * params_.assoc);
}

template <unsigned A>
std::optional<Addr>
Cache::insertAbsent(std::uint64_t base_index, Addr tag)
{
    SCHEDTASK_ASSERT(tag <= tagMask,
                     "block tag ", tag, " exceeds the packed 58-bit ",
                     "tag field");
    Way *base = &ways_[base_index];
    const unsigned ways = waysOf<A>();

    // Victim pick: the lowest invalid way (an invalidate() can leave
    // a hole anywhere in the set), else the set's least recently
    // used valid way — the one of rank 0, since valid ranks are
    // dense. The caller's hit scan just touched the set, so this pass
    // stays in the host's L1.
    constexpr std::uint64_t validRankZero = validBit >> rankShift;
    std::uint32_t invalid = 0;
    std::uint32_t oldest = 0;
    for (unsigned w = 0; w < ways; ++w) {
        invalid |= std::uint32_t{!isValid(base[w])} << w;
        oldest |= std::uint32_t{(base[w].raw >> rankShift) == validRankZero}
            << w;
    }
    const bool full = invalid == 0;
    const unsigned valid_count = ways - std::popcount(invalid);
    const unsigned victim = std::countr_zero(full ? oldest : invalid);

    // Slot the incoming block in at the top of the set's recency
    // order. Displacing a valid way removes it from the permutation
    // first (ways above it slide down), so valid ranks stay a dense
    // 0..valid-1 permutation either way; filling a hole removes
    // nothing (no rank exceeds maxAssoc).
    std::optional<Addr> evicted;
    if (full)
        evicted = (base[victim].raw & tagMask) << block_shift_;
    dropRank<A>(base, full ? rankOf(base[victim]) : maxAssoc);
    const std::uint64_t new_rank = valid_count - (full ? 1 : 0);
    base[victim].raw = tag | (new_rank << rankShift) | validBit;
    mru_index_ = base_index + victim;
    return evicted;
}

template std::optional<Addr> Cache::insertAbsent<0>(std::uint64_t, Addr);
template std::optional<Addr> Cache::insertAbsent<4>(std::uint64_t, Addr);
template std::optional<Addr> Cache::insertAbsent<8>(std::uint64_t, Addr);

void
Cache::flush()
{
    for (auto &w : ways_)
        w.raw &= tagMask; // clears valid and rank, keeps stale tags
}

std::uint64_t
Cache::validBlocks() const
{
    std::uint64_t n = 0;
    for (const auto &w : ways_)
        n += isValid(w) ? 1 : 0;
    return n;
}

bool
Cache::ranksDense() const
{
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const Way *base = &ways_[set * params_.assoc];
        std::uint64_t valid = 0;
        std::uint64_t ranks_seen = 0;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (!isValid(base[w])) {
                if (rankOf(base[w]) != 0)
                    return false;
                continue;
            }
            ++valid;
            ranks_seen |= std::uint64_t{1} << rankOf(base[w]);
        }
        // Distinct ranks, all below valid: exactly bits 0..valid-1.
        if (ranks_seen != (std::uint64_t{1} << valid) - 1)
            return false;
    }
    return true;
}

bool
Cache::tagsUnique() const
{
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const Way *base = &ways_[set * params_.assoc];
        for (unsigned a = 0; a < params_.assoc; ++a) {
            if (!isValid(base[a]))
                continue;
            for (unsigned b = a + 1; b < params_.assoc; ++b)
                if (isValid(base[b])
                        && (base[b].raw & tagMask)
                               == (base[a].raw & tagMask))
                    return false;
        }
    }
    return true;
}

} // namespace schedtask
