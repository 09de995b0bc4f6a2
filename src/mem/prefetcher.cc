#include "mem/prefetcher.hh"

#include <algorithm>

namespace schedtask
{

namespace
{

/**
 * Next-line prefetches work on physical addresses and cannot cross
 * a page boundary: the next virtual page may map anywhere, so a
 * sequential physical prefetch past the page edge would fetch an
 * unrelated page's line (and this simulator's scattered frame layout
 * makes that pollution certain, not just likely).
 */
bool
samePage(Addr a, Addr b)
{
    return pageFrameOf(a) == pageFrameOf(b);
}

} // namespace

CallGraphPrefetcher::CallGraphPrefetcher(unsigned num_cores)
    : core_state_(num_cores)
{
}

void
CallGraphPrefetcher::onFetch(CoreId core, Addr line_addr, bool hit,
                             PrefetchSink &sink)
{
    CoreState &cs = core_state_.at(core);
    // Learn only the lines that *missed* shortly after the task
    // started: those are the ones a prefetch would have saved.
    // Learning hit lines and re-installing them on every start
    // would evict useful contents for no gain (prefetch pollution).
    if (cs.recording && cs.recorded < recordLimit) {
        if (!hit) {
            auto &lines = table_[cs.token];
            if (std::find(lines.begin(), lines.end(), line_addr)
                    == lines.end()
                    && lines.size() < recordLimit) {
                lines.push_back(line_addr);
            }
        }
        ++cs.recorded;
        if (cs.recorded >= recordLimit)
            cs.recording = false;
    }

    if (!hit) {
        // Only every other next-line prefetch is timely enough to
        // save the subsequent miss; the late half is dropped (the
        // demand fetch overtakes it).
        cs.timely = !cs.timely;
        if (cs.timely) {
            for (unsigned d = 1; d <= nextLineDegree; ++d) {
                const Addr next = line_addr + d * lineBytes;
                if (!samePage(line_addr, next))
                    break;
                sink.installInstLine(core, next);
                ++issued_;
            }
        }
    }
}

void
CallGraphPrefetcher::onTaskStart(CoreId core, std::uint64_t task_token,
                                 PrefetchSink &sink)
{
    CoreState &cs = core_state_.at(core);
    cs.token = task_token;
    cs.recorded = 0;
    cs.recording = true;

    auto it = table_.find(task_token);
    if (it == table_.end())
        return;
    for (Addr line : it->second) {
        sink.installInstLine(core, line);
        ++issued_;
    }
}

} // namespace schedtask
