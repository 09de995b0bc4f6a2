#include "core/stats_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace schedtask
{

StatsTable::StatsTable(unsigned heatmap_bits)
    : heatmap_bits_(heatmap_bits)
{
}

StatsEntry &
StatsTable::rowFor(SfType type, const SfTypeInfo *info)
{
    // Slices of one superFuncType arrive in bursts (the same type
    // is dispatched repeatedly within an epoch), so memoize the last
    // row. Element addresses in an unordered_map are stable across
    // rehashes, so the pointer stays valid until clear().
    if (last_row_ != nullptr && last_raw_ == type.raw())
        return *last_row_;
    auto it = rows_.find(type.raw());
    if (it == rows_.end()) {
        it = rows_.emplace(type.raw(), StatsEntry(heatmap_bits_)).first;
        it->second.info = info;
    }
    last_raw_ = type.raw();
    last_row_ = &it->second;
    return it->second;
}

void
StatsTable::record(SfType type, const SfTypeInfo *info, Cycles exec_time,
                   std::uint64_t insts, const PageHeatmap &heatmap)
{
    StatsEntry &e = rowFor(type, info);
    ++e.freq;
    e.execTime += exec_time;
    e.insts += insts;
    if (heatmap.bits() == heatmap_bits_)
        e.heatmap.orWith(heatmap);
}

void
StatsTable::recordWait(SfType type, const SfTypeInfo *info, Cycles wait)
{
    rowFor(type, info).queueWait += wait;
}

void
StatsTable::aggregateFrom(const StatsTable &other)
{
    SCHEDTASK_ASSERT(other.heatmap_bits_ == heatmap_bits_,
                     "aggregating tables of different heatmap widths");
    for (const auto &[raw, entry] : other.rows_) {
        auto it = rows_.find(raw);
        if (it == rows_.end()) {
            it = rows_.emplace(raw, StatsEntry(heatmap_bits_)).first;
            it->second.info = entry.info;
        }
        StatsEntry &e = it->second;
        e.freq += entry.freq;
        e.execTime += entry.execTime;
        e.insts += entry.insts;
        e.queueWait += entry.queueWait;
        e.heatmap.orWith(entry.heatmap);
    }
}

void
StatsTable::clear()
{
    last_row_ = nullptr;
    rows_.clear();
}

const StatsEntry *
StatsTable::find(SfType type) const
{
    auto it = rows_.find(type.raw());
    return it == rows_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t>
StatsTable::typeOrder() const
{
    std::vector<std::uint64_t> order;
    order.reserve(rows_.size());
    for (const auto &[raw, entry] : rows_)
        order.push_back(raw);
    std::sort(order.begin(), order.end());
    return order;
}

} // namespace schedtask
