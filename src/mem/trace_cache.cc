#include "mem/trace_cache.hh"

namespace schedtask
{

namespace
{

CacheParams
traceCacheParams(const TraceCacheParams &p)
{
    CacheParams cp;
    cp.blockBytes = static_cast<std::uint64_t>(p.linesPerTrace) * lineBytes;
    cp.assoc = p.assoc;
    cp.sizeBytes = static_cast<std::uint64_t>(p.traces) * cp.blockBytes;
    return cp;
}

} // namespace

TraceCache::TraceCache(const TraceCacheParams &params)
    : params_(params), cache_(traceCacheParams(params))
{
}

bool
TraceCache::access(Addr line_addr)
{
    ++accesses_;
    const Addr block =
        line_addr
        & ~(static_cast<Addr>(params_.linesPerTrace) * lineBytes - 1);
    if (cache_.access(line_addr)) {
        auto it = built_at_.find(block);
        if (it != built_at_.end()
                && accesses_ - it->second > buildRetireDelay) {
            ++hits_;
            return true;
        }
        return false; // trace still being built this traversal
    }
    const std::optional<Addr> evicted = cache_.insert(line_addr);
    if (evicted)
        built_at_.erase(*evicted);
    built_at_[block] = accesses_;
    return false;
}

} // namespace schedtask
