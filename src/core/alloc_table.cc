#include "core/alloc_table.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace schedtask
{

AllocTable
AllocTable::build(const std::vector<TypeLoad> &demand,
                  const OverlapTable &overlap, unsigned num_cores)
{
    AllocTable table;
    double total = 0.0;
    for (const TypeLoad &load : demand)
        total += load.weight;
    if (total <= 0.0 || num_cores == 0)
        return table;

    struct Load
    {
        SfType type;
        double quota; // fair share, in cores
    };
    // Square-root safety staffing: a stage served by few cores
    // needs proportionally more slack than a stage served by many
    // (Erlang-C: queueing delay at fixed utilization explodes as
    // the server count shrinks). Raw fair shares are padded with
    // 0.5 * sqrt(share) and renormalized, which shifts a little
    // capacity from the wide types to the narrow ones and keeps
    // the allocation stationary.
    constexpr double safetyAlpha = 0.5;
    std::vector<Load> loads;
    loads.reserve(demand.size());
    double padded_total = 0.0;
    for (const TypeLoad &load : demand) {
        const double raw = load.weight / total * num_cores;
        const double padded = raw + safetyAlpha * std::sqrt(raw);
        loads.push_back(Load{load.type, padded});
        padded_total += padded;
    }
    for (Load &load : loads)
        load.quota = load.quota / padded_total * num_cores;
    std::stable_sort(loads.begin(), loads.end(),
                     [](const Load &a, const Load &b) {
                         if (a.quota != b.quota)
                             return a.quota > b.quota;
                         return a.type.raw() < b.type.raw();
                     });

    // Pass 1: dedicated cores for heavy types. The floor of the
    // quota is granted (at least one core); light types fall through
    // to the shared bins of pass 2.
    CoreId next_core = 0;
    struct Bin
    {
        CoreId core;
        double load = 0.0;
        std::vector<SfType> members;
    };
    std::vector<Bin> bins;
    std::vector<Load> light;

    for (const Load &load : loads) {
        if (load.quota >= 1.0) {
            auto granted = static_cast<unsigned>(load.quota);
            granted = std::min<unsigned>(
                granted,
                num_cores > next_core ? num_cores - next_core : 0);
            if (granted == 0) {
                light.push_back(load);
                continue;
            }
            std::vector<CoreId> cores;
            cores.reserve(granted);
            for (unsigned g = 0; g < granted; ++g)
                cores.push_back(next_core++);
            table.set(load.type, std::move(cores));
        } else {
            light.push_back(load);
        }
    }

    // Pass 2: bin-pack light types onto the remaining cores,
    // preferring the bin whose members have the highest Page overlap
    // with the candidate (so that e.g. read and pread share a core).
    // A type whose best partner has not been placed yet refuses to
    // join a weak bin while fresh cores remain, leaving room for the
    // partner to pair up later.
    for (const Load &load : light) {
        // The best overlap this type has with anyone.
        std::uint64_t best_any = 0;
        for (const OverlapPeer &peer : overlap.peersOf(load.type))
            best_any = std::max(best_any, peer.overlap);

        Bin *chosen = nullptr;
        std::uint64_t best_overlap = 0;
        for (Bin &bin : bins) {
            if (bin.load + load.quota > 1.0)
                continue;
            std::uint64_t ov = 0;
            for (SfType member : bin.members)
                ov = std::max(ov,
                              overlap.overlapBetween(load.type, member));
            if (chosen == nullptr || ov > best_overlap) {
                chosen = &bin;
                best_overlap = ov;
            }
        }
        const bool weak_match =
            chosen != nullptr && 2 * best_overlap < best_any;
        if ((chosen == nullptr || weak_match)
                && next_core < num_cores) {
            bins.push_back(Bin{next_core++, 0.0, {}});
            chosen = &bins.back();
        }
        if (chosen == nullptr) {
            // All cores taken: overflow into an existing bin. Pick
            // by Page overlap first (co-locating similar types is
            // the whole point), then by load; or share the last
            // dedicated core when there are no bins at all.
            if (!bins.empty()) {
                std::uint64_t over_best = 0;
                for (Bin &bin : bins) {
                    std::uint64_t ov = 0;
                    for (SfType member : bin.members)
                        ov = std::max(
                            ov, overlap.overlapBetween(load.type,
                                                       member));
                    if (chosen == nullptr || ov > over_best
                            || (ov == over_best
                                && bin.load < chosen->load)) {
                        chosen = &bin;
                        over_best = ov;
                    }
                }
            } else {
                bins.push_back(Bin{static_cast<CoreId>(num_cores - 1),
                                   0.0,
                                   {}});
                chosen = &bins.back();
            }
        }
        chosen->load += load.quota;
        chosen->members.push_back(load.type);
        table.set(load.type, {chosen->core});
    }

    // Pass 3: if cores remain unused (few types), grant them to the
    // heaviest types round-robin so no core is wasted by design.
    if (next_core < num_cores && !loads.empty()) {
        std::size_t li = 0;
        while (next_core < num_cores) {
            const SfType t = loads[li % loads.size()].type;
            auto it = table.map_.find(t.raw());
            if (it != table.map_.end())
                it->second.push_back(next_core++);
            ++li;
            if (li > loads.size() * (num_cores + 1))
                break; // safety: nothing absorbed the cores
        }
    }
    return table;
}

void
AllocTable::set(SfType type, std::vector<CoreId> cores)
{
    map_[type.raw()] = std::move(cores);
}

const std::vector<CoreId> *
AllocTable::coresFor(SfType type) const
{
    auto it = map_.find(type.raw());
    return it == map_.end() ? nullptr : &it->second;
}

std::vector<SfType>
AllocTable::types() const
{
    std::vector<SfType> out;
    out.reserve(map_.size());
    for (const auto &[raw, cores] : map_)
        out.push_back(SfType::fromRaw(raw));
    // map_ is unordered; sort so every consumer (trace export, the
    // allocation view, IRQ route programming) sees a stable order.
    std::sort(out.begin(), out.end(),
              [](SfType a, SfType b) { return a.raw() < b.raw(); });
    return out;
}

bool
AllocTable::sameShape(const AllocTable &other) const
{
    if (map_.size() != other.map_.size())
        return false;
    for (const auto &[raw, cores] : map_) {
        auto it = other.map_.find(raw);
        if (it == other.map_.end()
                || it->second.size() != cores.size()) {
            return false;
        }
    }
    return true;
}

void
AllocTable::checkCoverage(unsigned num_cores) const
{
    std::vector<bool> covered(num_cores, false);
    for (const auto &[raw, cores] : map_) {
        SCHEDTASK_ASSERT(!cores.empty(), "type ", raw,
                         " allocated an empty core list");
        std::vector<bool> seen(num_cores, false);
        for (CoreId c : cores) {
            SCHEDTASK_ASSERT(c < num_cores, "type ", raw,
                             " allocated invalid core ", c);
            SCHEDTASK_ASSERT(!seen[c], "type ", raw,
                             " allocated core ", c, " twice");
            seen[c] = true;
            covered[c] = true;
        }
    }
    if (map_.empty())
        return;
    for (unsigned c = 0; c < num_cores; ++c)
        SCHEDTASK_ASSERT(covered[c], "core ", c,
                         " left out of a non-empty allocation");
}

std::vector<SfType>
AllocTable::typesOnCore(CoreId core) const
{
    std::vector<SfType> out;
    for (const auto &[raw, cores] : map_) {
        if (std::find(cores.begin(), cores.end(), core) != cores.end())
            out.push_back(SfType::fromRaw(raw));
    }
    std::sort(out.begin(), out.end(),
              [](SfType a, SfType b) { return a.raw() < b.raw(); });
    return out;
}

} // namespace schedtask
