#include "mem/directory.hh"

#include "common/logging.hh"

namespace schedtask
{

namespace
{
/** Initial slot count; doubled on growth. Power of two. */
constexpr std::size_t initialSlots = 1 << 15;
} // namespace

CoherenceDirectory::CoherenceDirectory(unsigned num_cores)
    : num_cores_(num_cores), mask_(initialSlots - 1),
      slots_(initialSlots)
{
    SCHEDTASK_ASSERT(num_cores >= 1 && num_cores <= maxCores,
                     "full-map directory supports 1..", maxCores,
                     " cores, got ", num_cores);
}

CoherenceDirectory::Slot &
CoherenceDirectory::findOrInsert(Addr line_addr)
{
    SCHEDTASK_ASSERT(line_addr <= lineMask,
                     "line address ", line_addr,
                     " exceeds the packed slot's line field");
    std::size_t i = homeOf(line_addr);
    while (true) {
        Slot &s = slots_[i];
        if (slotEmpty(s)) {
            // Keep the load factor under 3/4 so probe chains stay
            // short; growth rehashes, so re-probe afterwards.
            if ((size_ + 1) * 4 > slots_.size() * 3) {
                grow();
                return findOrInsert(line_addr);
            }
            ++size_;
            s.meta = line_addr | (noOwner << ownerShift);
            return s;
        }
        if (slotLine(s) == line_addr)
            return s;
        i = (i + 1) & mask_;
    }
}

void
CoherenceDirectory::eraseAt(std::size_t i)
{
    // Backward-shift deletion: pull every displaced follower of the
    // probe chain one hole forward, so lookups never need tombstones.
    --size_;
    std::size_t j = i;
    while (true) {
        slots_[i] = Slot{};
        while (true) {
            j = (j + 1) & mask_;
            const Slot &cand = slots_[j];
            if (slotEmpty(cand))
                return;
            const std::size_t home = homeOf(slotLine(cand));
            // cand may fill the hole at i only if its home position
            // does not lie cyclically inside (i, j] — otherwise the
            // move would break cand's own probe chain.
            const bool home_in_hole_range = i <= j
                ? (home > i && home <= j)
                : (home > i || home <= j);
            if (!home_in_hole_range) {
                slots_[i] = cand;
                i = j;
                break;
            }
        }
    }
}

void
CoherenceDirectory::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot &s : old) {
        if (slotEmpty(s))
            continue;
        std::size_t i = homeOf(slotLine(s));
        while (!slotEmpty(slots_[i]))
            i = (i + 1) & mask_;
        slots_[i] = s;
    }
}

DirectoryOutcome
CoherenceDirectory::onRead(CoreId core, Addr line_addr)
{
    DirectoryOutcome out;
    Slot &e = findOrInsert(line_addr);
    const std::uint64_t owner = slotOwner(e);
    if (owner != noOwner && owner != core) {
        // Remote modified copy: cache-to-cache fill; the owner
        // transitions M->O (keeps its copy as a sharer).
        out.remoteDirtyFill = true;
        setOwner(e, noOwner);
    }
    e.sharers |= (std::uint64_t{1} << core);
    return out;
}

DirectoryOutcome
CoherenceDirectory::onWrite(CoreId core, Addr line_addr)
{
    DirectoryOutcome out;
    Slot &e = findOrInsert(line_addr);
    const std::uint64_t owner = slotOwner(e);
    if (owner != noOwner && owner != core)
        out.remoteDirtyFill = true;
    out.invalidateMask = e.sharers & ~(std::uint64_t{1} << core);
    e.sharers = std::uint64_t{1} << core;
    setOwner(e, core);
    return out;
}

void
CoherenceDirectory::onEvict(CoreId core, Addr line_addr)
{
    std::size_t i = homeOf(line_addr);
    while (true) {
        Slot &s = slots_[i];
        if (slotEmpty(s))
            return; // untracked line
        if (slotLine(s) == line_addr)
            break;
        i = (i + 1) & mask_;
    }
    Slot &e = slots_[i];
    e.sharers &= ~(std::uint64_t{1} << core);
    if (slotOwner(e) == core)
        setOwner(e, noOwner);
    if (slotEmpty(e))
        eraseAt(i); // last sharer gone: unlink from the probe chain
}

} // namespace schedtask
