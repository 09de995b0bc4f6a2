/**
 * @file
 * Instruction footprints and their traversal.
 *
 * A Footprint is the ordered set of cache lines a task's code
 * occupies, composed from physical regions. A FootprintWalker
 * produces the fetch-block address stream of an executing task:
 * mostly sequential, with *local* jumps (short taken branches and
 * loops stay in the neighbourhood of the current position) and rare
 * far jumps into cold paths. Handler instances restart from their
 * entry point, so an instance's working set is roughly its
 * instruction count divided by 16 lines — which is the property the
 * SchedTask mechanisms actually depend on (which lines/pages are
 * touched, and with how much reuse), making the walker stream a
 * faithful stand-in for a Qemu instruction trace.
 */

#ifndef SCHEDTASK_WORKLOAD_FOOTPRINT_HH
#define SCHEDTASK_WORKLOAD_FOOTPRINT_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "workload/region_map.hh"

namespace schedtask
{

/**
 * Bijective scattering of physical page frames.
 *
 * The RegionMap hands out contiguous frame ranges for convenience,
 * but a real kernel's physical allocator scatters frames across
 * the whole address space — and the Page-heatmap's additive hash
 * (Section 3.2) only behaves like a Bloom filter hash on scattered
 * frames. Multiplying by an odd constant modulo 2^52 is a bijection
 * on the frame space: sharing is preserved exactly (the same input
 * frame always maps to the same output frame) while the layout
 * becomes statistically uniform.
 */
constexpr Addr
scatterPageFrame(Addr pfn)
{
    constexpr Addr mask = (Addr{1} << 52) - 1;
    return (pfn * 0x9e3779b97f4a7dULL) & mask;
}

/** Apply frame scattering to a full byte address. */
constexpr Addr
scatterAddr(Addr addr)
{
    return (scatterPageFrame(pageFrameOf(addr)) << pageShift)
        | (addr & (pageBytes - 1));
}

/**
 * The ordered list of code lines a task executes over.
 */
class Footprint
{
  public:
    Footprint() = default;

    /** Append all lines of a region. */
    void addRegion(const Region &region);

    /**
     * Append a prefix of a region.
     *
     * @param fraction fraction of the region's lines to include,
     *                 clamped to [0, 1].
     */
    void addRegionFraction(const Region &region, double fraction);

    /** The line addresses, in traversal order. */
    const std::vector<Addr> &lines() const { return lines_; }

    /** Number of lines. */
    std::size_t size() const { return lines_.size(); }

    /** Total code bytes. */
    std::uint64_t bytes() const { return lines_.size() * lineBytes; }

    /** The set of distinct page frame numbers covered. */
    std::unordered_set<Addr> pageFrames() const;

    /**
     * Exact page overlap with another footprint: the number of
     * common page frames (ground truth for the Fig. 11 comparison
     * against the Bloom-filter ranking).
     */
    std::size_t exactPageOverlap(const Footprint &other) const;

    /** FNV-1a checksum of the covered pages (application SfType). */
    std::uint64_t pageChecksum() const;

  private:
    std::vector<Addr> lines_;
};

/**
 * Generates the fetch stream of a task executing over a footprint.
 *
 * Each call to nextLine() yields the line address of the next fetch
 * block. With probability jump_prob the cursor takes a local branch
 * (a short forward or backward hop of geometrically distributed
 * length — loops and if/else chains); with probability
 * far_jump_prob it takes a brief *excursion* to a uniformly random
 * position (a cold path / rarely-taken callee) and returns to where
 * it left off a few blocks later; otherwise it advances
 * sequentially, wrapping at the end.
 */
class FootprintWalker
{
  public:
    FootprintWalker() = default;

    /** Begin walking a footprint from a deterministic start. */
    void reset(const Footprint *footprint, double jump_prob,
               std::uint64_t start_index = 0,
               double far_jump_prob = defaultFarJumpProb);

    /**
     * Address of the next fetch block.
     *
     * Inline: called once per simulated fetch block from the core's
     * inner loop; the common paths (tight loop, sequential advance)
     * are a couple of RNG draws and an array load.
     */
    Addr
    nextLine(Rng &rng)
    {
        SCHEDTASK_ASSERT(lines_ != nullptr,
                         "walker not reset before nextLine()");
        const std::uint64_t size = size_;

        // Tight loop: re-fetch the previous line without advancing.
        if (excursion_left_ == 0 && rng.chance(repeatOdds))
            return lines_[prev_cursor_];

        const Addr line = lines_[cursor_];
        prev_cursor_ = cursor_;

        if (excursion_left_ > 0) {
            // Inside a cold-path excursion: run it sequentially,
            // then return to the saved position.
            if (--excursion_left_ == 0) {
                cursor_ = return_cursor_;
            } else {
                cursor_ = (cursor_ + 1) % size;
            }
            return line;
        }

        if (rng.chance(far_jump_odds_)) {
            return_cursor_ = cursor_;
            cursor_ = rng.below(size);
            excursion_left_ = static_cast<std::uint32_t>(
                rng.geometric(excursionMeanBlocks));
        } else if (rng.chance(jump_odds_)) {
            // Local branch: short hop, backward-biased (loops
            // re-enter recently executed code more often than they
            // skip ahead).
            const std::uint64_t dist = rng.geometric(localJumpMeanLines);
            if (rng.chance(forwardJumpOdds)) {
                cursor_ = (cursor_ + dist) % size;
            } else {
                cursor_ = (cursor_ + size - dist % size) % size;
            }
        } else {
            ++cursor_;
            if (cursor_ >= size)
                cursor_ = 0;
        }
        return line;
    }

    /** Move the cursor back to the footprint's entry point (a task
     *  loop restarting its body). */
    void rewind() { cursor_ = 0; }

    /** Current position (index into the footprint). */
    std::uint64_t cursor() const { return cursor_; }

    /** Footprint being walked, or nullptr. */
    const Footprint *footprint() const { return footprint_; }

    /** Mean local branch distance, in lines. */
    static constexpr double localJumpMeanLines = 10.0;

    /** Default probability of a far excursion per fetch block. */
    static constexpr double defaultFarJumpProb = 0.003;

    /** Mean excursion length, in fetch blocks. */
    static constexpr double excursionMeanBlocks = 6.0;

    /**
     * Probability of re-fetching the previous line (a tight loop
     * spinning within one cache line's worth of code). Raises the
     * self-hit-rate floor toward the 80-90% the paper reports for
     * the Linux baseline.
     */
    static constexpr double repeatProb = 0.35;

    /** Probability that a local branch hops forward, not back. */
    static constexpr double forwardJumpProb = 0.4;

  private:
    const Footprint *footprint_ = nullptr;
    /** Flat view of footprint_->lines(), resolved once in reset():
     *  nextLine() is the core's innermost call, and the two pointer
     *  chases through the Footprint are measurable there. The line
     *  list is append-only and walkers are reset after footprint
     *  construction, so the view cannot dangle. */
    const Addr *lines_ = nullptr;
    std::uint64_t size_ = 0;
    /** The per-block draws, resolved once (in reset() for the
     *  footprint's own probabilities). Odds of 0 draw nothing. */
    static constexpr Rng::Odds repeatOdds{repeatProb};
    static constexpr Rng::Odds forwardJumpOdds{forwardJumpProb};
    Rng::Odds jump_odds_{0.0};
    Rng::Odds far_jump_odds_{defaultFarJumpProb};
    std::uint64_t cursor_ = 0;
    std::uint64_t prev_cursor_ = 0;
    std::uint64_t return_cursor_ = 0;
    std::uint32_t excursion_left_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_WORKLOAD_FOOTPRINT_HH
