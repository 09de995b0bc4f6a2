/**
 * @file
 * Per-core and system-wide stats tables (Section 5.2, Figure 6).
 *
 * During an epoch, stopStatsCollection adds each SuperFunction's
 * execution statistics to its superFuncType's entry in the
 * executing core's stats table: frequency, total execution time,
 * and the bitwise OR of the Page-heatmap register. At the start of
 * the next epoch, TAlloc aggregates the per-core tables into the
 * system-wide table: frequencies and execution times are summed,
 * heatmaps are ORed.
 */

#ifndef SCHEDTASK_CORE_STATS_TABLE_HH
#define SCHEDTASK_CORE_STATS_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/page_heatmap.hh"
#include "core/sf_type.hh"

namespace schedtask
{

struct SfTypeInfo;

/** One stats-table row. */
struct StatsEntry
{
    explicit StatsEntry(unsigned heatmap_bits)
        : heatmap(heatmap_bits)
    {
    }

    std::uint64_t freq = 0;
    Cycles execTime = 0;
    std::uint64_t insts = 0;
    /** Time SuperFunctions of this type spent in runnable queues
     *  (demand signal: a saturated type shows long waits). */
    Cycles queueWait = 0;
    PageHeatmap heatmap;
    /** Static type description (for exact-overlap ground truth). */
    const SfTypeInfo *info = nullptr;

    /** Mean execution time of one SuperFunction of this type. */
    Cycles
    avgExecTime() const
    {
        return freq == 0 ? 0 : execTime / freq;
    }
};

/**
 * A stats table: superFuncType -> StatsEntry.
 */
class StatsTable
{
  public:
    explicit StatsTable(unsigned heatmap_bits = 512);

    /** Record one completed execution slice. */
    void record(SfType type, const SfTypeInfo *info, Cycles exec_time,
                std::uint64_t insts, const PageHeatmap &heatmap);

    /** Record the queueing delay observed when a SuperFunction of
     *  this type was dispatched. */
    void recordWait(SfType type, const SfTypeInfo *info, Cycles wait);

    /** Aggregate another table into this one (Figure 6 semantics). */
    void aggregateFrom(const StatsTable &other);

    /** Zero every entry (epoch start). */
    void clear();

    /** Entry lookup; nullptr when absent. */
    const StatsEntry *find(SfType type) const;

    /** All rows. */
    const std::unordered_map<std::uint64_t, StatsEntry> &rows() const
    {
        return rows_;
    }

    /** Number of distinct types observed. */
    std::size_t size() const { return rows_.size(); }

    /** Stable ordering of the observed types (sorted raw values). */
    std::vector<std::uint64_t> typeOrder() const;

    /** Heatmap width. */
    unsigned heatmapBits() const { return heatmap_bits_; }

  private:
    /** Find-or-create a row, memoizing the last one touched. */
    StatsEntry &rowFor(SfType type, const SfTypeInfo *info);

    unsigned heatmap_bits_;
    std::unordered_map<std::uint64_t, StatsEntry> rows_;
    /** Memo of the row last returned by rowFor (null after clear). */
    std::uint64_t last_raw_ = 0;
    StatsEntry *last_row_ = nullptr;
};

} // namespace schedtask

#endif // SCHEDTASK_CORE_STATS_TABLE_HH
