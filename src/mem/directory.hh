/**
 * @file
 * Coherence directory for private data caches.
 *
 * The simulated system (paper Table 2) uses directory-based MOESI
 * over the private L1D/L2 hierarchy. For a trace-driven timing model
 * the observable effects of MOESI are: (a) a write must invalidate
 * remote copies, (b) a read that hits a remote modified copy pays a
 * cache-to-cache transfer instead of a memory access, and (c) data
 * bounced between cores repeatedly misses locally. This directory
 * models exactly those effects with a full-map sharer vector and a
 * modified-owner field per line.
 */

#ifndef SCHEDTASK_MEM_DIRECTORY_HH
#define SCHEDTASK_MEM_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace schedtask
{

/** Outcome of consulting the directory on a data access. */
struct DirectoryOutcome
{
    /** A remote core held the line modified: cache-to-cache fill. */
    bool remoteDirtyFill = false;
    /** Bitmask of cores whose copies must be invalidated. */
    std::uint64_t invalidateMask = 0;
};

/**
 * Full-map coherence directory (up to 64 cores).
 *
 * Stored as a flat open-addressing hash table (linear probing,
 * fibonacci hashing, backward-shift deletion) because the directory
 * sits on the data hot path: one multiply+mask lands on the slot and
 * the common probe touches a single cache line, where the previous
 * std::unordered_map paid a prime modulo plus a node pointer chase
 * per consult. Probe order is never observable — the directory
 * exposes only per-line lookups and a size — so the layout cannot
 * perturb simulated results.
 *
 * The Machine is responsible for actually invalidating the private
 * caches named in the returned mask.
 */
class CoherenceDirectory
{
  public:
    /** Most cores a full-map (64-bit sharer vector) entry tracks. */
    static constexpr unsigned maxCores = 64;

    /** @param num_cores in [1, maxCores]. */
    explicit CoherenceDirectory(unsigned num_cores);

    /**
     * Record a read of line_addr by core and report the transfer
     * source characteristics.
     */
    DirectoryOutcome onRead(CoreId core, Addr line_addr);

    /**
     * Record a write of line_addr by core; all remote copies must
     * be invalidated (their cores are in the returned mask).
     */
    DirectoryOutcome onWrite(CoreId core, Addr line_addr);

    /**
     * Drop a core from the sharer set (e.g. after local eviction).
     * line_addr is the evicted block's byte address as reported by
     * Cache::insert — any address, including 0, is a valid block.
     */
    void onEvict(CoreId core, Addr line_addr);

    /** Number of tracked lines (for tests and memory accounting). */
    std::size_t trackedLines() const { return size_; }

    /** Core count the directory was built for. */
    unsigned numCores() const { return num_cores_; }

  private:
    /** Owner field position inside Slot::meta. */
    static constexpr unsigned ownerShift = 56;
    /** Line-address part of Slot::meta (low 56 bits). */
    static constexpr std::uint64_t lineMask =
        (std::uint64_t{1} << ownerShift) - 1;
    /** Owner byte meaning "no dirty owner". */
    static constexpr std::uint64_t noOwner = 0xFF;

    /**
     * One tracked line, packed to 16 bytes so two slots share a host
     * cache line: the line's byte address lives in the low 56 bits
     * of meta (line addresses are 64-byte aligned and far below
     * 2^56, asserted on insert) and the dirty-owner core in the top
     * byte (0xFF = none; the directory supports at most 64 cores).
     *
     * A slot with no sharers and no dirty owner is empty by
     * construction: every mutation that reaches that state erases
     * the slot, so emptiness needs no separate flag and the line
     * field of an empty slot is meaningless.
     */
    struct Slot
    {
        std::uint64_t sharers = 0;
        std::uint64_t meta = noOwner << ownerShift;
    };

    static Addr slotLine(const Slot &s) { return s.meta & lineMask; }

    /** Dirty-owner byte (noOwner when the line is not dirty). */
    static std::uint64_t slotOwner(const Slot &s)
    {
        return s.meta >> ownerShift;
    }

    static void
    setOwner(Slot &s, std::uint64_t owner)
    {
        s.meta = (s.meta & lineMask) | (owner << ownerShift);
    }

    static bool
    slotEmpty(const Slot &s)
    {
        return s.sharers == 0 && slotOwner(s) == noOwner;
    }

    /** Home slot of a line (fibonacci hash of the byte address). */
    std::size_t
    homeOf(Addr line_addr) const
    {
        return static_cast<std::size_t>(
                   (line_addr * 0x9E3779B97F4A7C15ull) >> 32)
            & mask_;
    }

    /** Find line_addr's slot, inserting an empty one if absent. */
    Slot &findOrInsert(Addr line_addr);

    /** Erase the slot at index i (backward-shift deletion). */
    void eraseAt(std::size_t i);

    /** Double the table and rehash every occupied slot. */
    void grow();

    unsigned num_cores_;
    std::size_t size_ = 0;
    std::size_t mask_;
    std::vector<Slot> slots_;
};

} // namespace schedtask

#endif // SCHEDTASK_MEM_DIRECTORY_HH
