/**
 * @file
 * Tests for the call-graph instruction prefetcher: learning and
 * replaying each task's entry misses, and its one-line next-line
 * fallback on every other miss.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/prefetcher.hh"

using namespace schedtask;

namespace
{

/** Records installed lines instead of touching a real hierarchy. */
class RecordingSink : public PrefetchSink
{
  public:
    void
    installInstLine(CoreId core, Addr line_addr) override
    {
        installs.emplace_back(core, line_addr);
    }

    /** The installed line addresses, in order. */
    std::vector<Addr>
    lines() const
    {
        std::vector<Addr> out;
        for (const auto &[core, line] : installs)
            out.push_back(line);
        return out;
    }

    std::vector<std::pair<CoreId, Addr>> installs;
};

} // namespace

TEST(CallGraphPrefetcher, LearnsEntryLinesAndReplays)
{
    CallGraphPrefetcher pf(2);
    RecordingSink sink;

    // First execution of task 7: the missing lines are recorded,
    // none replayed yet. The only installs are the next-line
    // fallback's, one line on every other miss.
    pf.onTaskStart(0, 7, sink);
    EXPECT_TRUE(sink.installs.empty());
    pf.onFetch(0, 0x1000, false, sink);
    pf.onFetch(0, 0x1040, false, sink);
    pf.onFetch(0, 0x1080, false, sink);
    EXPECT_EQ(pf.learnedEntries(), 1u);
    EXPECT_EQ(sink.lines(), (std::vector<Addr>{0x1040, 0x10c0}));

    // Second start of task 7: the learned lines are prefetched.
    sink.installs.clear();
    pf.onTaskStart(0, 7, sink);
    EXPECT_EQ(sink.lines(), (std::vector<Addr>{0x1000, 0x1040, 0x1080}));
    EXPECT_EQ(pf.issued(), 5u);
}

TEST(CallGraphPrefetcher, RecordLimitCapsLearning)
{
    constexpr unsigned limit = CallGraphPrefetcher::recordLimit;
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onTaskStart(0, 9, sink);
    std::vector<Addr> missed;
    // One miss beyond the limit: not recorded.
    for (unsigned i = 0; i <= limit; ++i) {
        missed.push_back(0x1000 + i * lineBytes);
        pf.onFetch(0, missed.back(), false, sink);
    }
    sink.installs.clear();
    pf.onTaskStart(0, 9, sink);
    missed.pop_back();
    EXPECT_EQ(sink.lines(), missed);
}

TEST(CallGraphPrefetcher, HitsAreNotLearned)
{
    // Re-installing lines that hit would be pure pollution, but a
    // hit still uses up one of the recorded fetches.
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onTaskStart(0, 4, sink);
    pf.onFetch(0, 0x5000, /*hit=*/true, sink);
    for (unsigned i = 1; i <= CallGraphPrefetcher::recordLimit; ++i)
        pf.onFetch(0, 0x5000 + i * lineBytes, /*hit=*/false, sink);
    sink.installs.clear();
    pf.onTaskStart(0, 4, sink);
    EXPECT_EQ(sink.lines(), (std::vector<Addr>{0x5040, 0x5080, 0x50c0}));
}

TEST(CallGraphPrefetcher, DistinctTasksLearnSeparately)
{
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onTaskStart(0, 1, sink);
    pf.onFetch(0, 0xa000, false, sink);
    pf.onTaskStart(0, 2, sink);
    pf.onFetch(0, 0xb000, false, sink);
    EXPECT_EQ(pf.learnedEntries(), 2u);

    sink.installs.clear();
    pf.onTaskStart(0, 1, sink);
    ASSERT_EQ(sink.installs.size(), 1u);
    EXPECT_EQ(sink.installs[0].second, 0xa000u);
}

TEST(CallGraphPrefetcher, DuplicateLinesRecordedOnce)
{
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onTaskStart(0, 3, sink);
    pf.onFetch(0, 0xc000, false, sink);
    pf.onFetch(0, 0xc000, false, sink);
    sink.installs.clear();
    pf.onTaskStart(0, 3, sink);
    EXPECT_EQ(sink.lines(), (std::vector<Addr>{0xc000}));
}

TEST(CallGraphPrefetcher, FallsBackToNextLineOnMiss)
{
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onFetch(0, 0x2000, /*hit=*/true, sink);
    EXPECT_TRUE(sink.installs.empty());
    pf.onFetch(0, 0x2000, /*hit=*/false, sink);
    EXPECT_EQ(sink.lines(), (std::vector<Addr>{0x2000 + lineBytes}));
    EXPECT_EQ(pf.issued(), 1u);
}

TEST(CallGraphPrefetcher, PerCoreRecordingState)
{
    CallGraphPrefetcher pf(2);
    RecordingSink sink;
    pf.onTaskStart(0, 5, sink);
    pf.onTaskStart(1, 6, sink);
    pf.onFetch(0, 0xd000, false, sink); // task 5 on core 0
    pf.onFetch(1, 0xe000, false, sink); // task 6 on core 1
    sink.installs.clear();
    pf.onTaskStart(0, 6, sink); // task 6 learned line from core 1
    ASSERT_EQ(sink.installs.size(), 1u);
    EXPECT_EQ(sink.installs[0].second, 0xe000u);
}

TEST(CallGraphPrefetcher, NextLineFallbackStopsAtPageBoundary)
{
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    // The timeliness toggle issues on every other miss: the first
    // and third misses are the timely ones. The last line of a page
    // has no next line in the page (the following page's frame maps
    // elsewhere), so nothing may issue for it.
    pf.onFetch(0, 2 * pageBytes - lineBytes, /*hit=*/false, sink);
    EXPECT_TRUE(sink.installs.empty());
    EXPECT_EQ(pf.issued(), 0u);
    pf.onFetch(0, 0x9000, /*hit=*/false, sink); // untimely: no issue
    EXPECT_TRUE(sink.installs.empty());
    pf.onFetch(0, 3 * pageBytes - 2 * lineBytes, /*hit=*/false, sink);
    ASSERT_EQ(sink.installs.size(), 1u);
    EXPECT_EQ(sink.installs[0].second, 3 * pageBytes - lineBytes);
}

TEST(CallGraphPrefetcher, ResetStatsClearsIssued)
{
    CallGraphPrefetcher pf(1);
    RecordingSink sink;
    pf.onTaskStart(0, 8, sink);
    pf.onFetch(0, 0x1000, /*hit=*/false, sink);
    ASSERT_GT(pf.issued(), 0u);
    pf.resetStats();
    EXPECT_EQ(pf.issued(), 0u);
    // Learned state survives the reset.
    EXPECT_EQ(pf.learnedEntries(), 1u);
}
