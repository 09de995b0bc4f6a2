/**
 * @file
 * Thread-pool stress for SweepRunner. Part of tier-1 everywhere, but
 * its real audience is the tsan preset (tools/check.sh): at --jobs 8
 * on small machines every worker interleaves with every other, so
 * TSan certifies the claim the harness makes — the pool, the
 * logQuiet flag, and the per-run trace-file writes are race-free and
 * the results are bitwise identical to a serial run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "harness/sweep.hh"

using namespace schedtask;

namespace
{

ExperimentConfig
smallConfig(const std::string &bench)
{
    return ExperimentConfig::standard(bench, 1.0)
        .withCores(4)
        .withEpochs(1, 1);
}

/** Ten runs (4 comparisons + 4 shared baselines would dedup to 8;
 *  add two standalone variants for an odd, non-divisible count). */
Sweep
stressSweep()
{
    Sweep sweep;
    for (const char *bench : {"Find", "Iscp", "Oscp", "Apache"}) {
        sweep.addComparison(bench, "SchedTask", smallConfig(bench),
                            TechniqueSpec{"SchedTask"});
    }
    sweep.add("Find", "FlexSC", smallConfig("Find"),
              TechniqueSpec{"FlexSC"});
    sweep.add("Iscp", "SLICC", smallConfig("Iscp"),
              TechniqueSpec{"SLICC"});
    return sweep;
}

SweepResults
runWithJobs(unsigned jobs, const std::string &trace_dir = "")
{
    SweepOptions options;
    options.jobs = jobs;
    options.progress = false;
    options.traceDir = trace_dir;
    return SweepRunner(options).run(stressSweep());
}

} // namespace

TEST(SweepStress, EightJobsMatchSerialBitwise)
{
    const Sweep sweep = stressSweep();
    const SweepResults serial = runWithJobs(1);
    const SweepResults parallel = runWithJobs(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const RunRequest &req : sweep.requests()) {
        const RunResult &a = serial.at(req.label());
        const RunResult &b = parallel.at(req.label());
        // Exact equality: label-derived seeds make every run
        // independent of worker count and execution order.
        EXPECT_EQ(a.metrics.instsRetired, b.metrics.instsRetired)
            << req.label();
        EXPECT_EQ(a.metrics.cycles, b.metrics.cycles) << req.label();
        EXPECT_EQ(a.instThroughput(), b.instThroughput())
            << req.label();
        EXPECT_EQ(a.appPerformance(), b.appPerformance())
            << req.label();
    }
}

TEST(SweepStress, ConcurrentTraceWritesAndLogToggles)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir())
        / "schedtask_sweep_stress_traces";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Hammer the logging layer from every worker while a separate
    // thread flips the quiet flag: this is exactly the interleaving
    // TSan must certify (warnImpl reads logQuiet while setLogQuiet
    // stores it).
    std::atomic<bool> stop{false};
    std::thread toggler([&stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            setLogQuiet(true);
            std::this_thread::yield();
            setLogQuiet(false);
        }
    });

    SweepOptions options;
    options.jobs = 8;
    options.progress = false;
    options.traceDir = dir.string();
    std::atomic<unsigned> started{0};
    options.onRunStart = [&started](const RunRequest &req) {
        ++started;
        warn("stress run starting: ", req.label());
    };
    const Sweep sweep = stressSweep();
    const SweepResults results = SweepRunner(options).run(sweep);

    stop.store(true);
    toggler.join();
    setLogQuiet(false);

    EXPECT_EQ(started.load(), results.size());
    // Every run wrote its own trace-file pair, no file was shared.
    for (const RunRequest &req : sweep.requests()) {
        std::string name = req.label();
        for (char &c : name)
            if (c == '/')
                c = '_';
        char key[32];
        std::snprintf(key, sizeof(key), "@%016llx",
                      static_cast<unsigned long long>(cellKey(req)));
        name += key;
        EXPECT_TRUE(std::filesystem::exists(
            dir / (name + ".trace.json")))
            << name;
        EXPECT_TRUE(
            std::filesystem::exists(dir / (name + ".jsonl")))
            << name;
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepStress, ParallelForUnderContention)
{
    std::vector<std::atomic<int>> hits(512);
    parallelFor(hits.size(),
                [&](std::size_t i) { ++hits[i]; }, 8);
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}
