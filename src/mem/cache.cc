#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace schedtask
{

bool
Cache::supports(const CacheParams &params)
{
    if ((params.assoc != 4 && params.assoc != 8)
        || !std::has_single_bit(params.blockBytes)
        || params.blockBytes > params.sizeBytes / params.assoc)
        return false;
    const std::uint64_t set_bytes = params.blockBytes * params.assoc;
    return params.sizeBytes % set_bytes == 0
        && std::has_single_bit(params.sizeBytes / set_bytes);
}

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    SCHEDTASK_ASSERT(supports(params_),
                     "unsupported cache geometry: ", params_.sizeBytes,
                     " B, ", params_.assoc, "-way, ", params_.blockBytes,
                     " B blocks (need 4 or 8 ways and a power-of-two "
                     "number of sets)");
    num_sets_ = params_.sizeBytes / (params_.blockBytes * params_.assoc);
    set_mask_ = num_sets_ - 1;
    block_shift_ = static_cast<unsigned>(std::countr_zero(params_.blockBytes));
    num_ways_ = num_sets_ * params_.assoc;

    // The recency words follow the ways in the same allocation, a
    // nibble per way (byte i holds positions 2i and 2i + 1, low
    // nibble first). Every set starts with way p at position p (any
    // permutation would do: a set fills its invalid ways first).
    const std::uint64_t order_bytes = num_ways_ / 2;
    ways_.resize(num_ways_ + (order_bytes + sizeof(Way) - 1) / sizeof(Way));
    for (std::uint64_t i = 0; i < order_bytes; ++i) {
        const unsigned pos = 2 * i % params_.assoc;
        order()[i] = static_cast<unsigned char>(pos | (pos + 1) << 4);
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
    for (unsigned w = 0; w < A; ++w)
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

template std::optional<Addr> Cache::insertAbsent<4>(std::uint64_t, Addr);
template std::optional<Addr> Cache::insertAbsent<8>(std::uint64_t, Addr);

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
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        unsigned seen = 0; // bit w: way w already listed
        for (unsigned pos = 0; pos < assoc; ++pos) {
            const std::uint64_t i = set * assoc + pos;
            const unsigned way = (order()[i / 2] >> (4 * (i % 2))) & 0xf;
            if (way >= assoc || (seen >> way & 1) != 0)
                return false;
            seen |= 1u << way;
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
