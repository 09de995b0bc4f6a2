/**
 * @file
 * Tests for workload assembly: scaling rules (Section 6.1/6.3),
 * data-region allocation, and the appendix's multi-programmed bags.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workload/workload.hh"

using namespace schedtask;

TEST(Workload, SingleThreadedSpawnsOneProcessPerCore)
{
    BenchmarkSuite suite;
    const Workload wl = Workload::buildSingle(suite, "Find", 1.0, 32);
    EXPECT_EQ(wl.threads().size(), 32u);
    for (const ThreadSpec &t : wl.threads())
        EXPECT_TRUE(t.singleThreadedApp);
}

TEST(Workload, DoublingRule)
{
    // Section 6.1: 2X doubles processes for single-threaded apps
    // and threads for multi-threaded ones.
    BenchmarkSuite suite;
    EXPECT_EQ(Workload::buildSingle(suite, "Find", 2.0, 32)
                  .threads()
                  .size(),
              64u);
    EXPECT_EQ(Workload::buildSingle(suite, "Apache", 2.0, 32)
                  .threads()
                  .size(),
              192u);
    EXPECT_EQ(Workload::buildSingle(suite, "FileSrv", 2.0, 32)
                  .threads()
                  .size(),
              800u);
}

TEST(Workload, EightXScale)
{
    BenchmarkSuite suite;
    EXPECT_EQ(Workload::buildSingle(suite, "OLTP", 8.0, 32)
                  .threads()
                  .size(),
              768u);
}

TEST(Workload, MultiThreadedSharesOneDataRegion)
{
    BenchmarkSuite suite;
    const Workload wl =
        Workload::buildSingle(suite, "Apache", 1.0, 32);
    const Addr shared = wl.threads().front().sharedDataBase;
    EXPECT_NE(shared, 0u);
    for (const ThreadSpec &t : wl.threads()) {
        EXPECT_EQ(t.sharedDataBase, shared);
        EXPECT_FALSE(t.singleThreadedApp);
        EXPECT_EQ(t.appUid, wl.threads().front().appUid);
    }
}

TEST(Workload, SingleThreadedProcessesOwnTheirData)
{
    BenchmarkSuite suite;
    const Workload wl = Workload::buildSingle(suite, "Iscp", 1.0, 4);
    std::unordered_set<Addr> privates, shareds;
    std::unordered_set<std::uint64_t> uids;
    for (const ThreadSpec &t : wl.threads()) {
        privates.insert(t.privateDataBase);
        shareds.insert(t.sharedDataBase);
        uids.insert(t.appUid);
    }
    EXPECT_EQ(privates.size(), wl.threads().size());
    EXPECT_EQ(shareds.size(), wl.threads().size());
    EXPECT_EQ(uids.size(), wl.threads().size());
}

TEST(Workload, PrivateRegionsDistinctAcrossThreads)
{
    BenchmarkSuite suite;
    const Workload wl =
        Workload::buildSingle(suite, "Apache", 1.0, 32);
    std::unordered_set<Addr> privates;
    for (const ThreadSpec &t : wl.threads())
        privates.insert(t.privateDataBase);
    EXPECT_EQ(privates.size(), wl.threads().size());
}

TEST(Workload, AmbientPeriodScalesWithLoad)
{
    BenchmarkSuite suite;
    const Workload one = Workload::buildSingle(suite, "Apache", 1.0, 32);
    const Workload two = Workload::buildSingle(suite, "Apache", 2.0, 32);
    ASSERT_FALSE(one.ambient().empty());
    EXPECT_NEAR(static_cast<double>(two.ambient()[0].spec.meanPeriod),
                static_cast<double>(one.ambient()[0].spec.meanPeriod)
                    / 2.0,
                1.0);
}

TEST(Workload, BagNamesAndParts)
{
    EXPECT_EQ(Workload::bagNames().size(), 6u);
    // Appendix Table 1 compositions.
    const auto a = Workload::bagParts("MPW-A");
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].benchmark, "DSS");
    EXPECT_EQ(a[0].scale, 1.0);
    const auto f = Workload::bagParts("MPW-F");
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[1].benchmark, "FileSrv");
    EXPECT_EQ(f[1].scale, 0.5);
}

TEST(Workload, BagBuildsMergedThreadPopulation)
{
    BenchmarkSuite suite;
    const Workload wl =
        Workload::build(suite, Workload::bagParts("MPW-B"), 32);
    // Apache 1X (96) + OLTP 1X (96).
    EXPECT_EQ(wl.threads().size(), 192u);
    EXPECT_EQ(wl.numParts(), 2u);
    std::unordered_set<unsigned> parts;
    for (const ThreadSpec &t : wl.threads())
        parts.insert(t.partIndex);
    EXPECT_EQ(parts.size(), 2u);
}

TEST(Workload, RepeatedBuildsAgainstSameSuiteWork)
{
    BenchmarkSuite suite;
    const Workload a = Workload::buildSingle(suite, "Find", 1.0, 8);
    const Workload b = Workload::buildSingle(suite, "Find", 1.0, 8);
    // Unique region names; different physical placements.
    EXPECT_NE(a.threads()[0].privateDataBase,
              b.threads()[0].privateDataBase);
}

TEST(Workload, PartThreadsRoundsAndSaturates)
{
    const BenchmarkSuite suite;
    const BenchmarkProfile &filesrv = suite.byName("FileSrv");
    const BenchmarkProfile &find = suite.byName("Find");
    EXPECT_EQ(Workload::partThreads(filesrv, 16.0, 32), 6400u);
    EXPECT_EQ(Workload::partThreads(find, 2.0, 32), 64u);
    EXPECT_EQ(Workload::partThreads(find, 0.01, 32), 0u);
    EXPECT_EQ(Workload::partThreads(filesrv, 0.001, 32), 0u);

    const unsigned cap = Workload::maxPartThreads;
    EXPECT_EQ(Workload::partThreads(find, cap / 64.0, 64), cap);
    EXPECT_EQ(Workload::partThreads(find, (cap + 1) / 64.0, 64), cap + 1);
    EXPECT_EQ(Workload::partThreads(filesrv, 1e9, 32), cap + 1);
    EXPECT_EQ(Workload::partThreads(filesrv, 1e300, 32), cap + 1);
    EXPECT_EQ(Workload::partThreads(filesrv, std::nan(""), 32), cap + 1);
}

TEST(WorkloadDeath, ZeroThreadPartPanics)
{
    BenchmarkSuite suite;
    EXPECT_DEATH(Workload::buildSingle(suite, "Apache", 0.001, 32),
                 "Apache at scale 0.001 needs 1..65536 threads");
}

TEST(WorkloadDeath, UnknownBagPanics)
{
    EXPECT_DEATH(Workload::bagParts("MPW-Z"), "unknown");
}

TEST(Workload, IndexInPartCountsWithinPart)
{
    BenchmarkSuite suite;
    const Workload wl =
        Workload::build(suite, Workload::bagParts("MPW-B"), 32);
    unsigned seen0 = 0, seen1 = 0;
    for (const ThreadSpec &t : wl.threads()) {
        if (t.partIndex == 0)
            EXPECT_EQ(t.indexInPart, seen0++);
        else
            EXPECT_EQ(t.indexInPart, seen1++);
    }
    EXPECT_EQ(seen0, 96u);
    EXPECT_EQ(seen1, 96u);
}
