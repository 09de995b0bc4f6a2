/**
 * @file
 * Quickstart: simulate the Apache benchmark at the paper's 2X
 * workload under the Linux baseline and under SchedTask, and print
 * the headline comparison (instruction throughput, application
 * performance, core idleness, cache hit rates).
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [benchmark] [scale]
 */

#include <cstdio>
#include <string>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "stats/table.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "Apache";
    const double scale = argc > 2 ? std::stod(argv[2]) : 2.0;

    printHeader("SchedTask quickstart: " + benchmark + " @ "
                + TextTable::num(scale, 1) + "X workload");

    const ExperimentConfig cfg =
        ExperimentConfig::standard(benchmark, scale);

    // compare() runs the Linux baseline and SchedTask on two worker
    // threads (SCHEDTASK_JOBS permitting), same workload streams.
    std::printf("running Linux baseline and SchedTask...\n");
    const Comparison cmp = compare(cfg, TechniqueSpec{"SchedTask"});
    const RunResult &base = cmp.baseline;
    const RunResult &st = cmp.technique;

    TextTable table({"metric", "Linux", "SchedTask", "change"});
    auto row = [&](const char *name, double b, double v,
                   const std::string &delta) {
        table.addRow({name, TextTable::num(b, 2), TextTable::num(v, 2),
                      delta});
    };
    row("insts/cycle (per core)",
        base.metrics.ipc(base.numCores), st.metrics.ipc(st.numCores),
        TextTable::pct(percentChange(base.instThroughput(),
                                     st.instThroughput())) + " %");
    row("app events/sec (x1e6)", base.appPerformance() / 1e6,
        st.appPerformance() / 1e6,
        TextTable::pct(percentChange(base.appPerformance(),
                                     st.appPerformance())) + " %");
    row("idle cores (%)", base.idlePercent(), st.idlePercent(),
        TextTable::pct(st.idlePercent() - base.idlePercent()) + " pp");
    row("i-cache hit, app (%)", base.iHitApp * 100, st.iHitApp * 100,
        TextTable::pct(pointChange(base.iHitApp, st.iHitApp)) + " pp");
    row("i-cache hit, OS (%)", base.iHitOs * 100, st.iHitOs * 100,
        TextTable::pct(pointChange(base.iHitOs, st.iHitOs)) + " pp");
    row("d-cache hit, app (%)", base.dHitApp * 100, st.dHitApp * 100,
        TextTable::pct(pointChange(base.dHitApp, st.dHitApp)) + " pp");
    row("d-cache hit, OS (%)", base.dHitOs * 100, st.dHitOs * 100,
        TextTable::pct(pointChange(base.dHitOs, st.dHitOs)) + " pp");
    row("migrations/1e9 insts", base.migrationsPerBillionInsts(),
        st.migrationsPerBillionInsts(), "-");

    std::printf("%s\n", table.render().c_str());
    return 0;
}
