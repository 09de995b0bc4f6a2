#include "mem/cache.hh"

#include <algorithm>
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
    SCHEDTASK_ASSERT(params_.assoc <= 255,
                     "associativity ", params_.assoc,
                     " exceeds the byte-wide recency positions (max 255)");
    SCHEDTASK_ASSERT(params_.sizeBytes % (params_.blockBytes * params_.assoc)
                         == 0,
                     "cache size must be a multiple of assoc * block size");
    num_sets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    SCHEDTASK_ASSERT(num_sets_ > 0, "cache must have at least one set");
    // Non-power-of-two set counts are allowed (e.g. a 24-entry TLB);
    // the index is then a modulo rather than a mask.
    set_mask_ = (num_sets_ & (num_sets_ - 1)) == 0 ? num_sets_ - 1 : 0;
    block_shift_ = log2Exact(params_.blockBytes);
    num_ways_ = num_sets_ * params_.assoc;

    // The recency positions follow the ways in the same allocation:
    // a nibble per way for the 4- and 8-way kernels (byte i holds
    // positions 2i and 2i + 1, low nibble first), a byte per way for
    // the runtime one. Every set starts with way p at position p (any
    // permutation would do: a set fills its invalid ways first).
    const unsigned assoc = params_.assoc;
    const bool nibbles = assoc == 4 || assoc == 8;
    const std::uint64_t order_bytes = nibbles ? num_ways_ / 2 : num_ways_;
    ways_.resize(num_ways_ + (order_bytes + sizeof(Way) - 1) / sizeof(Way));
    for (std::uint64_t i = 0; i < order_bytes; ++i) {
        const unsigned pos = (nibbles ? 2 * i : i) % assoc;
        order()[i] = static_cast<unsigned char>(
            nibbles ? pos | (pos + 1) << 4 : pos);
    }
}

template <unsigned A>
std::optional<Addr>
Cache::insertAbsent(std::uint64_t base_index, Addr tag)
{
    SCHEDTASK_ASSERT(tag <= tagMask,
                     "block tag ", tag, " exceeds the packed 63-bit ",
                     "tag field");
    Way *base = &ways_[base_index];

    // Victim pick: the lowest invalid way (an invalidate() can leave
    // a hole anywhere in the set), else the set's least recently
    // used way — the last recency position, since every way of a
    // full set is valid. The caller's hit scan just touched the set,
    // so this pass stays in the host's L1.
    std::uint32_t invalid = 0;
    for (unsigned w = 0; w < waysOf<A>(); ++w)
        invalid |= std::uint32_t{!isValid(base[w])} << w;
    const bool full = invalid == 0;
    const unsigned victim =
        full ? oldestWay<A>(base_index) : std::countr_zero(invalid);

    std::optional<Addr> evicted;
    if (full)
        evicted = (base[victim].raw & tagMask) << block_shift_;
    base[victim].raw = tag | validBit;
    touch<A>(base_index, victim);
    mru_index_ = base_index + victim;
    return evicted;
}

template std::optional<Addr> Cache::insertAbsent<0>(std::uint64_t, Addr);
template std::optional<Addr> Cache::insertAbsent<4>(std::uint64_t, Addr);
template std::optional<Addr> Cache::insertAbsent<8>(std::uint64_t, Addr);

void
Cache::flush()
{
    // Valid bits only: stale tags and recency positions stay.
    for (std::uint64_t w = 0; w < num_ways_; ++w)
        ways_[w].raw &= tagMask;
}

std::uint64_t
Cache::validBlocks() const
{
    std::uint64_t n = 0;
    for (std::uint64_t w = 0; w < num_ways_; ++w)
        n += isValid(ways_[w]) ? 1 : 0;
    return n;
}

bool
Cache::recencyIsPermutation() const
{
    const unsigned assoc = params_.assoc;
    const bool nibbles = assoc == 4 || assoc == 8;
    std::vector<bool> seen(assoc);
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        std::fill(seen.begin(), seen.end(), false);
        for (unsigned pos = 0; pos < assoc; ++pos) {
            const std::uint64_t i = set * assoc + pos;
            const unsigned way = nibbles
                ? (order()[i / 2] >> (4 * (i % 2))) & 0xf
                : order()[i];
            if (way >= assoc || seen[way])
                return false;
            seen[way] = true;
        }
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
