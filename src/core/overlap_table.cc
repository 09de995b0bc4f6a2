#include "core/overlap_table.hh"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "workload/sf_catalog.hh"

namespace schedtask
{

namespace
{
const std::vector<OverlapPeer> emptyList{};

bool
comparableCategories(SfType a, SfType b)
{
    // Section 5.2: no overlap values between OS-specific and
    // application superFuncTypes.
    return a.isOs() == b.isOs();
}

} // namespace

template <typename OverlapFn>
OverlapTable
OverlapTable::build(const StatsTable &stats, OverlapFn &&fn)
{
    OverlapTable table;
    const auto &rows = stats.rows();

    // Snapshot the rows in iteration order once: the overlap measure
    // is symmetric (AND of heatmaps / set intersection), so each
    // unordered pair is computed a single time below and emitted in
    // both directions. The per-list peer order (and thus the
    // stable-sort tie order) still follows the map's own iteration
    // order, exactly as the old double loop produced it.
    struct Row
    {
        std::uint64_t raw;
        const StatsEntry *entry;
    };
    std::vector<Row> order;
    order.reserve(rows.size());
    for (const auto &[raw, entry] : rows)
        order.push_back(Row{raw, &entry});

    const std::size_t n = order.size();
    std::vector<std::vector<std::uint64_t>> pair(n);
    for (std::size_t i = 0; i < n; ++i)
        pair[i].resize(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const SfType type_i = SfType::fromRaw(order[i].raw);
        for (std::size_t j = i + 1; j < n; ++j) {
            if (!comparableCategories(type_i,
                                      SfType::fromRaw(order[j].raw)))
                continue;
            const std::uint64_t ov =
                fn(*order[i].entry, *order[j].entry);
            pair[i][j] = ov;
            pair[j][i] = ov;
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const SfType type_i = SfType::fromRaw(order[i].raw);
        std::vector<OverlapPeer> peers;
        peers.reserve(n);
        auto &index = table.index_[order[i].raw];
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const SfType type_j = SfType::fromRaw(order[j].raw);
            if (!comparableCategories(type_i, type_j))
                continue;
            peers.push_back(OverlapPeer{type_j, pair[i][j]});
            index.emplace(order[j].raw, pair[i][j]);
        }
        std::stable_sort(peers.begin(), peers.end(),
                         [](const OverlapPeer &x, const OverlapPeer &y) {
                             return x.overlap > y.overlap;
                         });
        table.lists_.emplace(order[i].raw, std::move(peers));
    }
    return table;
}

OverlapTable
OverlapTable::fromHeatmaps(const StatsTable &stats)
{
    return build(stats, [](const StatsEntry &a, const StatsEntry &b) {
        return static_cast<std::uint64_t>(a.heatmap.overlap(b.heatmap));
    });
}

OverlapTable
OverlapTable::fromExactFootprints(const StatsTable &stats)
{
    return build(stats, [](const StatsEntry &a, const StatsEntry &b) {
        if (a.info == nullptr || b.info == nullptr)
            return std::uint64_t{0};
        return static_cast<std::uint64_t>(
            a.info->code.exactPageOverlap(b.info->code));
    });
}

const std::vector<OverlapPeer> &
OverlapTable::peersOf(SfType type) const
{
    auto it = lists_.find(type.raw());
    return it == lists_.end() ? emptyList : it->second;
}

std::uint64_t
OverlapTable::overlapBetween(SfType a, SfType b) const
{
    const auto row = index_.find(a.raw());
    if (row == index_.end())
        return 0;
    const auto cell = row->second.find(b.raw());
    return cell == row->second.end() ? 0 : cell->second;
}

std::vector<OverlapPeer>
OverlapTable::mergedPeers(const std::vector<SfType> &local_types) const
{
    std::unordered_set<std::uint64_t> local;
    for (SfType t : local_types)
        local.insert(t.raw());

    // Keep the best overlap seen per peer type.
    std::unordered_map<std::uint64_t, std::uint64_t> best;
    for (SfType t : local_types) {
        for (const OverlapPeer &peer : peersOf(t)) {
            if (local.count(peer.type.raw()) != 0)
                continue;
            auto it = best.find(peer.type.raw());
            if (it == best.end() || it->second < peer.overlap)
                best[peer.type.raw()] = peer.overlap;
        }
    }

    std::vector<OverlapPeer> merged;
    merged.reserve(best.size());
    for (const auto &[raw, ov] : best)
        merged.push_back(OverlapPeer{SfType::fromRaw(raw), ov});
    // Tie-break on the type id: `best` is an unordered_map, so
    // without a total order equal-overlap peers would come back in
    // hash order and steal decisions would vary across libstdc++
    // versions.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const OverlapPeer &x, const OverlapPeer &y) {
                         if (x.overlap != y.overlap)
                             return x.overlap > y.overlap;
                         return x.type.raw() < y.type.raw();
                     });
    return merged;
}

double
rankingTau(const StatsTable &stats, const OverlapTable &ranking,
           const ExactPageSets &exact_pages)
{
    auto exactOverlap = [&](SfType a, SfType b) -> double {
        auto ia = exact_pages.find(a.raw());
        auto ib = exact_pages.find(b.raw());
        if (ia == exact_pages.end() || ib == exact_pages.end())
            return 0.0;
        double common = 0.0;
        for (Addr pf : ia->second)
            common += ib->second.count(pf) ? 1.0 : 0.0;
        return common;
    };

    std::vector<double> taus;
    for (const auto &[raw, entry] : stats.rows()) {
        const SfType type = SfType::fromRaw(raw);
        const auto &peers = ranking.peersOf(type);
        if (peers.size() < 3)
            continue;
        std::vector<double> ranked_scores, exact_scores;
        std::unordered_set<std::uint64_t> distinct;
        for (const OverlapPeer &peer : peers) {
            ranked_scores.push_back(static_cast<double>(peer.overlap));
            const double ex = exactOverlap(type, peer.type);
            exact_scores.push_back(ex);
            distinct.insert(static_cast<std::uint64_t>(ex));
        }
        // A ranking with fewer than three distinct levels carries
        // no ordering information; tau over it is pure tie noise.
        if (distinct.size() < 3)
            continue;
        taus.push_back(kendallTauB(ranked_scores, exact_scores));
    }
    return arithmeticMean(taus);
}

} // namespace schedtask
