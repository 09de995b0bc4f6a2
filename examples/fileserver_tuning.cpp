/**
 * @file
 * Tuning study on the FileSrv workload (the benchmark SchedTask
 * helps most, thanks to its 24k-instruction bottom halves): sweeps
 * the epoch length and the Page-heatmap register width, printing
 * throughput and idleness for each setting. Mirrors the paper's
 * Section 6.5 methodology on a single benchmark.
 *
 * Run: ./build/examples/fileserver_tuning [benchmark]
 */

#include <cstdio>
#include <optional>
#include <string>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "FileSrv";
    const ExperimentConfig base_cfg =
        ExperimentConfig::standard(bench);
    if (const std::optional<std::string> error =
            base_cfg.validate(TechniqueSpec{"SchedTask"})) {
        std::fprintf(stderr, "fileserver_tuning: %s\n", error->c_str());
        return 2;
    }

    printHeader("SchedTask tuning on " + bench + " (2X workload)");

    // One sweep: every tuning variant is addVersus'd against the
    // one unmodified-config Linux baseline, so the whole study runs
    // concurrently and the baseline simulates exactly once.
    const std::vector<Cycles> epochs = {100000u, 250000u, 500000u};
    const std::vector<unsigned> widths = {128u, 256u, 512u, 1024u,
                                          2048u};

    Sweep sweep;
    for (Cycles epoch : epochs)
        sweep.addVersus(bench, "epoch " + std::to_string(epoch),
                        ExperimentConfig::standard(bench)
                            .withEpochCycles(epoch),
                        TechniqueSpec{"SchedTask"}, base_cfg);
    for (unsigned bits : widths)
        sweep.addVersus(bench, std::to_string(bits) + " bits",
                        ExperimentConfig::standard(bench)
                            .withHeatmapBits(bits),
                        TechniqueSpec{"SchedTask"}, base_cfg);
    const SweepResults results = SweepRunner().run(sweep);
    const SweepReport report(sweep, results);

    const RunResult &base = report.baselineOf(bench);
    std::printf("Linux baseline: %.2f Ginsts/s, %.1f%% idle\n\n",
                base.instThroughput() / 1e9, base.idlePercent());

    auto addRow = [&](TextTable &table, const std::string &label,
                      const std::string &col) {
        const RunResult &run = report.run(bench, col);
        table.addRow({label,
                      TextTable::pct(percentChange(
                          base.instThroughput(),
                          run.instThroughput())) + " %",
                      TextTable::num(run.idlePercent())});
    };

    {
        printHeader("Epoch length sweep (cycles)");
        TextTable table({"epoch", "throughput vs Linux", "idle (%)"});
        for (Cycles epoch : epochs)
            addRow(table, std::to_string(epoch),
                   "epoch " + std::to_string(epoch));
        std::printf("%s\n", table.render().c_str());
    }

    {
        printHeader("Page-heatmap register width sweep (bits)");
        TextTable table({"width", "throughput vs Linux", "idle (%)"});
        for (unsigned bits : widths)
            addRow(table, std::to_string(bits),
                   std::to_string(bits) + " bits");
        std::printf("%s\n", table.render().c_str());
        std::printf("Paper: 512 bits is the sweet spot; wider "
                    "registers buy nothing (Section 6.5).\n");
    }
    return 0;
}
