#include "core/talloc.hh"

#include <algorithm>

#include "common/invariants.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"

namespace schedtask
{

namespace
{

/** Cosine-similarity guard for re-allocation (paper: 0.98). */
constexpr double reallocationGuard = 0.98;

} // namespace

TAlloc::TAlloc(unsigned num_cores, unsigned heatmap_bits,
               bool use_exact_overlap, double demand_smoothing)
    : num_cores_(num_cores), heatmap_bits_(heatmap_bits),
      use_exact_overlap_(use_exact_overlap),
      demand_smoothing_(demand_smoothing), system_stats_(heatmap_bits)
{
    SCHEDTASK_ASSERT(num_cores >= 1, "TAlloc needs at least one core");
}

TAllocResult
TAlloc::run(std::vector<StatsTable> &per_core_stats,
            const AllocTable &current,
            const std::function<std::size_t(SfType)> &queued_count,
            bool use_wait_signal)
{
    // 1. Aggregate per-core tables (Figure 6) and reset them for
    //    the upcoming epoch.
    system_stats_ = StatsTable(heatmap_bits_);
    for (StatsTable &core_stats : per_core_stats) {
        system_stats_.aggregateFrom(core_stats);
        core_stats.clear();
    }

    TAllocResult result;
    if (system_stats_.size() == 0) {
        result.alloc = current;
        return result;
    }

    // 2. Overlap table from this epoch's heatmaps.
    result.overlap = use_exact_overlap_
        ? OverlapTable::fromExactFootprints(system_stats_)
        : OverlapTable::fromHeatmaps(system_stats_);

    // 3. Demand per type: executed time plus the expected time of
    //    the work still queued at the boundary. A type whose cores
    //    are saturated executes exactly its allocation's worth per
    //    epoch, so executed time alone cannot signal that it needs
    //    more cores — the backlog term does.
    const std::vector<std::uint64_t> order = system_stats_.typeOrder();
    std::vector<TypeLoad> demand;
    std::vector<double> breakup;
    demand.reserve(order.size());
    double total = 0.0;
    for (std::uint64_t raw : order) {
        const SfType type = SfType::fromRaw(raw);
        const StatsEntry *entry = system_stats_.find(type);
        const double exec = static_cast<double>(entry->execTime);
        double weight = exec;
        if (queued_count) {
            // Backlog term, capped at the executed time: a deeply
            // queued type can at most double its share per epoch,
            // which (with the EMA smoothing below) grows its
            // allocation geometrically without overshooting past
            // the balance point and starving everyone else.
            const double backlog =
                static_cast<double>(queued_count(type))
                * static_cast<double>(entry->avgExecTime());
            weight += std::min(backlog, std::max(exec, 1.0));
        }
        demand.push_back(TypeLoad{type, weight});
        total += weight;
    }

    // Severe starvation correction: when cores idled while work
    // queued, grant one extra core's worth of demand to the single
    // most-starved type (highest queue-wait-to-exec ratio, and
    // waiting longer than it executed). A type starved by short,
    // frequent re-entries executes exactly its allocation's worth
    // per epoch, so neither executed time nor the instantaneous
    // backlog can express its deficit; the one-core-per-epoch bias
    // converges without oscillating.
    if (use_wait_signal && total > 0.0 && num_cores_ > 0) {
        TypeLoad *worst = nullptr;
        double worst_ratio = 1.0;
        for (std::size_t i = 0; i < demand.size(); ++i) {
            const StatsEntry *entry =
                system_stats_.find(demand[i].type);
            const auto exec = static_cast<double>(entry->execTime);
            const auto wait = static_cast<double>(entry->queueWait);
            if (exec <= 0.0 || wait <= exec)
                continue;
            const double ratio = wait / exec;
            if (worst == nullptr || ratio > worst_ratio) {
                worst = &demand[i];
                worst_ratio = ratio;
            }
        }
        if (worst != nullptr) {
            const double one_core = total / num_cores_;
            worst->weight += one_core;
            total += one_core;
        }
    }
    // Normalize to shares, then smooth against the previous epoch's
    // shares so the allocation cannot ping-pong when the measured
    // demand reacts to the previous allocation.
    const double alpha =
        first_run_ ? 1.0 : std::clamp(demand_smoothing_, 0.0, 1.0);
    for (TypeLoad &load : demand) {
        const double share = total > 0.0 ? load.weight / total : 0.0;
        const auto it = smoothed_share_.find(load.type.raw());
        const double prev =
            it == smoothed_share_.end() ? 0.0 : it->second;
        const double smoothed = alpha * share + (1.0 - alpha) * prev;
        smoothed_share_[load.type.raw()] = smoothed;
        load.weight = smoothed;
    }
    breakup.reserve(demand.size());
    for (const TypeLoad &load : demand)
        breakup.push_back(load.weight);

    // 4. Stability guard. The paper re-allocates only when the
    //    cosine similarity of consecutive breakups drops below
    //    0.98, to bound the cost of transferring threads. We apply
    //    the same intent in a form that converges: keep the current
    //    allocation only when the breakup is cosine-stable AND the
    //    tentative allocation would grant every type the same
    //    number of cores anyway (so re-allocating would change
    //    nothing but core identities).
    std::vector<std::uint64_t> union_order = order;
    for (std::uint64_t raw : basis_order_) {
        if (std::find(union_order.begin(), union_order.end(), raw)
                == union_order.end()) {
            union_order.push_back(raw);
        }
    }
    std::vector<double> cur_vec(union_order.size(), 0.0);
    std::vector<double> basis_vec(union_order.size(), 0.0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        auto it = std::find(union_order.begin(), union_order.end(),
                            order[i]);
        cur_vec[static_cast<std::size_t>(it - union_order.begin())] =
            breakup[i];
    }
    for (std::size_t i = 0; i < basis_order_.size(); ++i) {
        auto it = std::find(union_order.begin(), union_order.end(),
                            basis_order_[i]);
        basis_vec[static_cast<std::size_t>(it - union_order.begin())] =
            prev_breakup_[i];
    }

    last_similarity_ =
        first_run_ ? 0.0 : cosineSimilarity(cur_vec, basis_vec);

    AllocTable tentative =
        AllocTable::build(demand, result.overlap, num_cores_);
    const bool stable = !current.empty()
        && last_similarity_ >= reallocationGuard
        && tentative.sameShape(current);

    if (stable) {
        result.alloc = current;
        result.reallocated = false;
    } else {
        result.alloc = std::move(tentative);
        result.reallocated = true;
        basis_order_ = order;
        prev_breakup_ = breakup;
    }

    if constexpr (checkedBuild)
        result.alloc.checkCoverage(num_cores_);

    // 5. Interrupt routing: each interrupt type's first allocated
    //    core services its vector (Section 5.2).
    for (SfType type : result.alloc.types()) {
        if (type.category() != SfCategory::Interrupt)
            continue;
        const auto *cores = result.alloc.coresFor(type);
        if (cores != nullptr && !cores->empty()) {
            result.irqRoutes.push_back(IrqRoute{
                static_cast<IrqId>(type.subcategory()),
                (*cores)[0]});
        }
    }

    first_run_ = false;
    return result;
}

} // namespace schedtask
