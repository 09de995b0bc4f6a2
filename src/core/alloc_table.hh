/**
 * @file
 * The allocation table (Section 5.2).
 *
 * TAlloc allocates cores to each superFuncType in direct proportion
 * to its execution fraction in the previous epoch. Heavy types get
 * one or more dedicated cores; light types (whose fair share is
 * less than one core) are bin-packed onto shared cores, grouped by
 * Page overlap so that co-resident types pollute each other's
 * i-cache as little as possible.
 */

#ifndef SCHEDTASK_CORE_ALLOC_TABLE_HH
#define SCHEDTASK_CORE_ALLOC_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/overlap_table.hh"
#include "core/sf_type.hh"

namespace schedtask
{

/** One type's demand weight for allocation. */
struct TypeLoad
{
    SfType type;
    double weight = 0.0;
};

/**
 * superFuncType -> cores allowed to execute it.
 */
class AllocTable
{
  public:
    AllocTable() = default;

    /**
     * Build a proportional, overlap-aware allocation from explicit
     * demand weights.
     *
     * @param loads     per-type demand (executed time plus queued
     *                  backlog — see TAlloc)
     * @param overlap   overlap table (guides co-location of light
     *                  types); may be empty
     * @param num_cores cores to distribute
     */
    static AllocTable build(const std::vector<TypeLoad> &loads,
                            const OverlapTable &overlap,
                            unsigned num_cores);

    /** Explicitly set the cores of a type (tests, hand tuning). */
    void set(SfType type, std::vector<CoreId> cores);

    /** Cores allocated to a type; nullptr when the type is absent
     *  (the SuperFunction then runs on the local core, Section
     *  5.3). */
    const std::vector<CoreId> *coresFor(SfType type) const;

    /** All allocated types. */
    std::vector<SfType> types() const;

    /** Every entry: a type's raw value -> its cores. */
    const std::unordered_map<std::uint64_t, std::vector<CoreId>> &
    rows() const
    {
        return map_;
    }

    /** The types allocated to one core. */
    std::vector<SfType> typesOnCore(CoreId core) const;

    /** Number of entries. */
    std::size_t size() const { return map_.size(); }

    bool empty() const { return map_.empty(); }

    /**
     * True when both tables allocate the same number of cores to
     * the same set of types (core identities may differ). Used by
     * TAlloc to skip re-allocations that would not change the
     * shape of the schedule, avoiding gratuitous thread transfers.
     */
    bool sameShape(const AllocTable &other) const;

    /**
     * Structural self-check (checked builds; common/invariants.hh):
     * every allocated core id is < num_cores, no type lists a core
     * twice, no type has an empty core list, and — since pass 3 of
     * build() absorbs leftover cores — a non-empty table covers the
     * whole core set. Cores may be shared between light types, so
     * this is a cover, not a disjoint partition. Panics on
     * violation.
     */
    void checkCoverage(unsigned num_cores) const;

  private:
    std::unordered_map<std::uint64_t, std::vector<CoreId>> map_;
};

} // namespace schedtask

#endif // SCHEDTASK_CORE_ALLOC_TABLE_HH
