/**
 * @file
 * Reproduces Table 4: the impact of the workload scale (1X, 2X, 4X,
 * 8X the ensemble of Section 4.2) on the idle-time fraction and the
 * instruction-throughput change of each technique, relative to the
 * Linux baseline at the same scale.
 *
 * Paper shapes: SelectiveOffload pinned near 50% idle at every
 * scale; DisAggregateOS and SLICC idle heavily at 1X (41%) and melt
 * to ~0% by 4X; SchedTask's idle is low at 1X and near zero from 2X
 * on, and it is the best performer at every scale from 2X up.
 */

#include <cstdio>

#include "common/math_utils.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main()
{
    printHeader("Table 4: idle fraction (%) and throughput change "
                "(%) by workload scale");

    const std::vector<double> scales = {1.0, 2.0, 4.0, 8.0};
    const auto &benchmarks = BenchmarkSuite::benchmarkNames();

    for (double scale : scales) {
        std::vector<std::string> headers = {"technique"};
        for (const std::string &b : benchmarks)
            headers.push_back(b);
        headers.push_back("gmean");
        TextTable table(headers);

        const Sweep sweep = Sweep::cross(
            benchmarks, comparedTechniques(),
            [scale](const std::string &bench) {
                return ExperimentConfig::standard(bench, scale);
            });
        const SweepResults results = SweepRunner().run(sweep);
        const SweepReport report(sweep, results);
        const SeriesMatrix idle = report.idlePercent();
        const SeriesMatrix perf = report.throughputChange();

        // One row pair (Idle / Perf) per technique, paper layout.
        for (const TechniqueSpec &t : comparedTechniques()) {
            const std::string name = t.name;
            std::vector<std::string> idle_row = {name + " Idle"};
            std::vector<std::string> perf_row = {name + " Perf"};
            for (const std::string &bench : benchmarks) {
                idle_row.push_back(
                    TextTable::num(idle.get(bench, name), 0));
                perf_row.push_back(
                    TextTable::pct(perf.get(bench, name), 0));
            }
            idle_row.push_back("-");
            perf_row.push_back(TextTable::pct(
                geometricMeanPercent(perf.column(name)), 0));
            table.addRow(idle_row);
            table.addRow(perf_row);
        }

        std::printf("\n-- workload %gX --\n%s", scale,
                    table.render().c_str());
    }
    return 0;
}
