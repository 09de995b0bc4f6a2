#include "mem/tlb.hh"

namespace schedtask
{

CacheParams
TlbParams::cacheParams() const
{
    CacheParams cp;
    cp.blockBytes = pageBytes;
    cp.assoc = assoc;
    cp.sizeBytes = static_cast<std::uint64_t>(entries) * pageBytes;
    cp.latency = 0;
    return cp;
}

Tlb::Tlb(const TlbParams &params)
    : params_(params), cache_(params.cacheParams())
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
