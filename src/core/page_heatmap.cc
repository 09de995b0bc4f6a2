#include "core/page_heatmap.hh"

#include <bit>

#include "common/logging.hh"
#include "common/simd.hh"

namespace schedtask
{

PageHeatmap::PageHeatmap(unsigned bits)
    : bits_(bits)
{
    SCHEDTASK_ASSERT(validWidth(bits),
                     "heatmap width must be a power of two in [64, 65536], "
                     "got ", bits);
    words_.resize(bits / 64, 0);
}

std::uint64_t
PageHeatmap::hashPfn(Addr pfn)
{
    // Section 3.2: five right-shifts at a stride of 9 bits fold all
    // 52 PFN bits into the 9-bit index space of a 512-bit register.
    return pfn + (pfn >> 9) + (pfn >> 18) + (pfn >> 27) + (pfn >> 36)
        + (pfn >> 45);
}

bool
PageHeatmap::mightContainPfn(Addr pfn) const
{
    const std::uint64_t bit = hashPfn(pfn) & (bits_ - 1);
    return (words_[bit >> 6] >> (bit & 63)) & 1;
}

void
PageHeatmap::clear()
{
    // The memo must not survive a clear: the memoized frame's bit is
    // gone, so a repeat insert has to set it again.
    last_pfn_ = noPfn;
    simd::active().clear(words_.data(), words_.size());
}

void
PageHeatmap::orWith(const PageHeatmap &other)
{
    SCHEDTASK_ASSERT(other.bits_ == bits_,
                     "cannot OR heatmaps of different widths");
    simd::active().orWords(words_.data(), other.words_.data(),
                           words_.size());
}

unsigned
PageHeatmap::overlap(const PageHeatmap &other) const
{
    SCHEDTASK_ASSERT(other.bits_ == bits_,
                     "cannot compare heatmaps of different widths");
    // The hardware breaks the 512-bit AND into sixteen 32-bit
    // operations; the dispatched word kernel is equivalent (and on
    // AVX-512 it is literally one AND + one VPOPCNTQ).
    return static_cast<unsigned>(simd::active().andPopcount(
        words_.data(), other.words_.data(), words_.size()));
}

unsigned
PageHeatmap::popcount() const
{
    return static_cast<unsigned>(
        simd::active().popcount(words_.data(), words_.size()));
}

bool
PageHeatmap::empty() const
{
    for (auto w : words_)
        if (w != 0)
            return false;
    return true;
}

} // namespace schedtask
