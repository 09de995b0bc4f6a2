/**
 * @file
 * The overlap table (Section 5.2, Figure 6).
 *
 * For each superFuncType, TAlloc stores the list of other types
 * ordered by decreasing Page overlap — the Hamming weight of the
 * AND of their Page-heatmaps (Figure 3). Overlaps between
 * OS-specific and application types are not computed (the paper
 * never co-locates those on similarity grounds). The table can also
 * be built from exact footprint page sets, which is the "ideal
 * ranking" upper bound of Section 6.5; rankingTau() scores a table
 * against the code pages a run actually touched (Figure 11).
 */

#ifndef SCHEDTASK_CORE_OVERLAP_TABLE_HH
#define SCHEDTASK_CORE_OVERLAP_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "core/sf_type.hh"
#include "core/stats_table.hh"

namespace schedtask
{

/** One (type, overlap) pair of an overlap list. */
struct OverlapPeer
{
    SfType type;
    std::uint64_t overlap = 0;
};

/**
 * superFuncType -> peers sorted by decreasing Page overlap.
 */
class OverlapTable
{
  public:
    OverlapTable() = default;

    /** Build from Bloom-filter heatmaps (the hardware mechanism). */
    static OverlapTable fromHeatmaps(const StatsTable &stats);

    /** Build from exact footprint page sets (ideal ranking). */
    static OverlapTable fromExactFootprints(const StatsTable &stats);

    /** Peers of a type, best first; empty list when unknown. */
    const std::vector<OverlapPeer> &peersOf(SfType type) const;

    /** Overlap between two specific types; 0 when not tabulated.
     *  O(1): answered from a hash index built alongside the sorted
     *  lists (TMigrate queries this repeatedly per epoch). */
    std::uint64_t overlapBetween(SfType a, SfType b) const;

    /** Number of types with entries. */
    std::size_t size() const { return lists_.size(); }

    /**
     * Merge the overlap lists of several types into one list sorted
     * by decreasing overlap (used by the Steal-similar-work-also
     * strategy of Section 5.3). Entries for the local types
     * themselves are excluded.
     */
    std::vector<OverlapPeer>
    mergedPeers(const std::vector<SfType> &local_types) const;

  private:
    template <typename OverlapFn>
    static OverlapTable build(const StatsTable &stats, OverlapFn &&fn);

    std::unordered_map<std::uint64_t, std::vector<OverlapPeer>> lists_;
    /** (type a, type b) -> overlap, keyed per source type. Mirrors
     *  lists_ exactly; only non-zero values need storing, zero is
     *  the overlapBetween() miss default anyway. */
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::uint64_t,
                                          std::uint64_t>> index_;
};

/** The exact code pages each superFuncType (raw encoding) touched. */
using ExactPageSets =
    std::unordered_map<std::uint64_t, std::unordered_set<Addr>>;

/**
 * Figure 11's ranking fidelity: the mean over the stats table's
 * types of Kendall's tau-b between a type's peers as `ranking`
 * orders them and the same peers ordered by exact common-page count
 * in `exact_pages`; 0 when no type has an informative ranking.
 */
double rankingTau(const StatsTable &stats, const OverlapTable &ranking,
                  const ExactPageSets &exact_pages);

} // namespace schedtask

#endif // SCHEDTASK_CORE_OVERLAP_TABLE_HH
