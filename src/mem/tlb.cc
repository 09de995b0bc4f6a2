#include "mem/tlb.hh"

namespace schedtask
{

Tlb::Tlb(const TlbParams &params)
    : params_(params),
      cache_(CacheParams{std::uint64_t{params.entries} * pageBytes,
                         params.assoc, pageBytes})
{
}

double
Tlb::hitRate() const
{
    if (accesses_ == 0)
        return 1.0;
    return static_cast<double>(hits_) / static_cast<double>(accesses_);
}

} // namespace schedtask
