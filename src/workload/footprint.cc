#include "workload/footprint.hh"

#include <algorithm>

#include "common/logging.hh"

namespace schedtask
{

void
Footprint::addRegion(const Region &region)
{
    addRegionFraction(region, 1.0);
}

void
Footprint::addRegionFraction(const Region &region, double fraction)
{
    fraction = std::clamp(fraction, 0.0, 1.0);
    const auto count =
        static_cast<std::uint64_t>(fraction * region.lines());
    lines_.reserve(lines_.size() + count);
    // Code lines live on scattered physical frames (see
    // scatterPageFrame): traversal order stays sequential within
    // the region, but the frame numbers are spread over the whole
    // physical space as a real allocator would.
    for (std::uint64_t i = 0; i < count; ++i)
        lines_.push_back(scatterAddr(region.lineAddr(i)));
}

std::unordered_set<Addr>
Footprint::pageFrames() const
{
    std::unordered_set<Addr> frames;
    for (Addr line : lines_)
        frames.insert(pageFrameOf(line));
    return frames;
}

std::size_t
Footprint::exactPageOverlap(const Footprint &other) const
{
    const auto mine = pageFrames();
    const auto theirs = other.pageFrames();
    const auto &small = mine.size() <= theirs.size() ? mine : theirs;
    const auto &large = mine.size() <= theirs.size() ? theirs : mine;
    std::size_t common = 0;
    for (Addr pf : small)
        common += large.count(pf);
    return common;
}

std::uint64_t
Footprint::pageChecksum() const
{
    // FNV-1a over the sorted page frames: processes mapping the same
    // physical code pages obtain the same checksum, which is the
    // property Section 3.1 relies on.
    auto frames = pageFrames();
    std::vector<Addr> sorted(frames.begin(), frames.end());
    std::sort(sorted.begin(), sorted.end());

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (Addr pf : sorted) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (pf >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

void
FootprintWalker::reset(const Footprint *footprint, double jump_prob,
                       std::uint64_t start_index, double far_jump_prob)
{
    SCHEDTASK_ASSERT(footprint != nullptr && footprint->size() > 0,
                     "walker needs a non-empty footprint");
    footprint_ = footprint;
    lines_ = footprint->lines().data();
    size_ = footprint->size();
    jump_odds_ = Rng::Odds(jump_prob);
    far_jump_odds_ = Rng::Odds(far_jump_prob);
    cursor_ = start_index % footprint->size();
    prev_cursor_ = cursor_;
    return_cursor_ = 0;
    excursion_left_ = 0;
}

} // namespace schedtask
