#include "core/tmigrate.hh"

#include <algorithm>

#include "common/logging.hh"

namespace schedtask
{

const char *
stealPolicyName(StealPolicy policy)
{
    switch (policy) {
      case StealPolicy::None:
        return "Steal nothing";
      case StealPolicy::SameOnly:
        return "Steal same work only";
      case StealPolicy::SameAndSimilar:
        return "Steal similar work also";
      case StealPolicy::BusiestFirst:
        return "Steal from busiest";
    }
    return "unknown";
}

CoreId
selectLeastWaitingCore(const TMigrateView &view,
                       const std::vector<CoreId> &candidates)
{
    SCHEDTASK_ASSERT(!candidates.empty(), "no candidate cores");
    CoreId best = candidates.front();
    Cycles best_wait = view.waitingTime(best);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        const Cycles w = view.waitingTime(candidates[i]);
        if (w < best_wait) {
            best = candidates[i];
            best_wait = w;
        }
    }
    return best;
}

SuperFunction *
stealSameWork(const TMigrateView &view, const AllocTable &alloc,
              CoreId thief)
{
    const std::vector<SfType> my_types = alloc.typesOnCore(thief);
    if (my_types.empty())
        return nullptr;
    // Fast reject: none of the local types is queued anywhere.
    if (view.queuedCount) {
        bool any = false;
        for (SfType t : my_types) {
            if (view.queuedCount(t) > 0) {
                any = true;
                break;
            }
        }
        if (!any)
            return nullptr;
    }
    // typesOnCore() is sorted by raw value.
    const auto mine = [&my_types](SfType t) {
        return std::binary_search(
            my_types.begin(), my_types.end(), t,
            [](SfType a, SfType b) { return a.raw() < b.raw(); });
    };

    // Given multiple victims, prefer the one with the maximum
    // waiting time (Section 5.3).
    CoreId victim = invalidCore;
    Cycles victim_wait = 0;
    auto &queues = *view.queues;
    for (CoreId c = 0; c < queues.size(); ++c) {
        if (c == thief || queues[c].empty())
            continue;
        bool has_match = false;
        for (const SuperFunction *sf : queues[c]) {
            if (mine(sf->type)) {
                has_match = true;
                break;
            }
        }
        if (!has_match)
            continue;
        const Cycles w = view.waitingTime(c);
        if (victim == invalidCore || w > victim_wait) {
            victim = c;
            victim_wait = w;
        }
    }
    if (victim == invalidCore)
        return nullptr;

    auto &q = queues[victim];
    for (auto it = q.begin(); it != q.end(); ++it) {
        if (mine((*it)->type)) {
            SuperFunction *sf = *it;
            q.erase(it);
            if (view.onStolen)
                view.onStolen(sf);
            return sf;
        }
    }
    return nullptr; // unreachable: victim had a match
}

std::vector<SuperFunction *>
stealSimilarWork(const TMigrateView &view, const AllocTable &alloc,
                 const OverlapTable &overlap, CoreId thief)
{
    const std::vector<SfType> my_types = alloc.typesOnCore(thief);
    const std::vector<OverlapPeer> peers = overlap.mergedPeers(my_types);
    auto &queues = *view.queues;

    for (const OverlapPeer &peer : peers) {
        // Fast reject before scanning every queue.
        if (view.queuedCount && view.queuedCount(peer.type) == 0)
            continue;
        for (CoreId c = 0; c < queues.size(); ++c) {
            if (c == thief)
                continue;
            auto &q = queues[c];
            std::size_t matches = 0;
            for (const SuperFunction *sf : q)
                if (sf->type == peer.type)
                    ++matches;
            if (matches == 0)
                continue;
            // Steal half of them (at least one) to amortize the
            // initially cold i-cache (Section 5.3).
            std::size_t to_steal = std::max<std::size_t>(matches / 2, 1);
            std::vector<SuperFunction *> stolen;
            stolen.reserve(to_steal);
            for (auto it = q.begin();
                 it != q.end() && stolen.size() < to_steal;) {
                if ((*it)->type == peer.type) {
                    stolen.push_back(*it);
                    if (view.onStolen)
                        view.onStolen(*it);
                    it = q.erase(it);
                } else {
                    ++it;
                }
            }
            return stolen;
        }
    }
    return {};
}

std::vector<SuperFunction *>
stealFromBusiest(const TMigrateView &view, CoreId thief)
{
    auto &queues = *view.queues;
    CoreId victim = invalidCore;
    Cycles victim_wait = 0;
    for (CoreId c = 0; c < queues.size(); ++c) {
        if (c == thief || queues[c].empty())
            continue;
        const Cycles w = view.waitingTime(c);
        if (victim == invalidCore || w > victim_wait) {
            victim = c;
            victim_wait = w;
        }
    }
    if (victim == invalidCore)
        return {};
    auto &q = queues[victim];
    const std::size_t to_steal = std::max<std::size_t>(q.size() / 2, 1);
    std::vector<SuperFunction *> stolen;
    stolen.reserve(to_steal);
    for (std::size_t i = 0; i < to_steal; ++i) {
        SuperFunction *sf = q.back();
        q.pop_back();
        if (view.onStolen)
            view.onStolen(sf);
        stolen.push_back(sf);
    }
    return stolen;
}

} // namespace schedtask
