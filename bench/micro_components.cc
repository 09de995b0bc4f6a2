/**
 * @file
 * Component microbenchmarks (google-benchmark): the cost of the
 * hardware and software primitives SchedTask adds. These quantify
 * the claims of Sections 3.2 and 5.4 — heatmap updates are one
 * hash+bit-set (off the critical path), the 512-bit overlap is
 * sixteen 32-bit ANDs, TMigrate decisions are queue operations.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/alloc_table.hh"
#include "core/overlap_table.hh"
#include "core/page_heatmap.hh"
#include "core/stats_table.hh"
#include "core/tmigrate.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

void
BM_HeatmapInsert(benchmark::State &state)
{
    PageHeatmap hm(static_cast<unsigned>(state.range(0)));
    Rng rng(42);
    Addr pfn = 0x12345;
    for (auto _ : state) {
        hm.insertPfn(pfn);
        pfn += 7;
        benchmark::DoNotOptimize(hm);
    }
}
BENCHMARK(BM_HeatmapInsert)->Arg(128)->Arg(512)->Arg(2048);

void
BM_HeatmapOverlap(benchmark::State &state)
{
    const auto bits = static_cast<unsigned>(state.range(0));
    PageHeatmap a(bits), b(bits);
    Rng rng(42);
    for (int i = 0; i < 64; ++i) {
        a.insertPfn(rng());
        b.insertPfn(rng());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.overlap(b));
    }
}
BENCHMARK(BM_HeatmapOverlap)->Arg(128)->Arg(512)->Arg(2048);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{32 * 1024, 4, lineBytes, 3});
    Rng rng(42);
    Addr addr = 0;
    for (auto _ : state) {
        if (!cache.access(addr))
            cache.insert(addr);
        addr = (addr + lineBytes) % (64 * 1024);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyFetch(benchmark::State &state)
{
    MemHierarchy hier(HierarchyParams::paperDefault(4));
    Rng rng(42);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hier.fetch(0, addr, ExecClass::Os));
        addr = (addr + lineBytes) % (512 * 1024);
    }
}
BENCHMARK(BM_HierarchyFetch);

void
BM_OverlapTableBuild(benchmark::State &state)
{
    // A stats table shaped like a steady-state epoch: ~20 types.
    StatsTable stats(512);
    BenchmarkSuite suite;
    PageHeatmap hm(512);
    Rng rng(42);
    for (const SfTypeInfo &info : suite.catalog().all()) {
        hm.clear();
        for (Addr line : info.code.lines())
            hm.insertAddr(line);
        stats.record(info.type, &info, 1000, 1000, hm);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(OverlapTable::fromHeatmaps(stats));
    }
}
BENCHMARK(BM_OverlapTableBuild);

void
BM_AllocTableBuild(benchmark::State &state)
{
    StatsTable stats(512);
    BenchmarkSuite suite;
    PageHeatmap hm(512);
    Rng rng(42);
    Cycles t = 1000;
    for (const SfTypeInfo &info : suite.catalog().all()) {
        stats.record(info.type, &info, t, t, hm);
        t += 700;
    }
    const OverlapTable overlap = OverlapTable::fromHeatmaps(stats);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            AllocTable::build(stats, overlap, 32));
    }
}
BENCHMARK(BM_AllocTableBuild);

void
BM_StealScan(benchmark::State &state)
{
    // 32 queues, a few queued SuperFunctions, one matching type.
    std::vector<std::deque<SuperFunction *>> queues(32);
    std::vector<Cycles> backlog(32, 0);
    std::vector<SuperFunction> sfs(64);
    for (std::size_t i = 0; i < sfs.size(); ++i) {
        sfs[i].type = SfType::systemCall(i % 8);
        sfs[i].coreId = static_cast<CoreId>(i % 32);
        queues[i % 32].push_back(&sfs[i]);
        backlog[i % 32] += unseenTypeCost;
    }
    AllocTable alloc;
    alloc.set(SfType::systemCall(3), {0});
    TMigrateView view;
    view.queues = &queues;
    view.backlog = &backlog;

    for (auto _ : state) {
        SuperFunction *sf = stealSameWork(view, alloc, 0);
        benchmark::DoNotOptimize(sf);
        if (sf != nullptr)
            queues[sf->coreId].push_back(sf); // back for the next iter
    }
}
BENCHMARK(BM_StealScan);

} // namespace

BENCHMARK_MAIN();
