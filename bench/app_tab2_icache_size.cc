/**
 * @file
 * Reproduces the appendix's Table 2: sensitivity to the i-cache
 * size (16 KB, 32 KB, 64 KB, all 4-way). Smaller i-caches thrash
 * more in the baseline, so core specialization helps more; the
 * paper measures SchedTask at +25/+23/+22% throughput for
 * 16/32/64 KB.
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
    printHeader("Appendix Table 2: impact of the i-cache size on "
                "i-hit change (pp) and throughput change (%)");

    const std::vector<unsigned> sizes_kb = {16, 32, 64};

    for (unsigned kb : sizes_kb) {
        std::vector<std::string> headers = {"technique"};
        for (const std::string &b : BenchmarkSuite::benchmarkNames())
            headers.push_back(b);
        headers.push_back("gmean");
        TextTable table(headers);

        const Sweep sweep = Sweep::cross(
            BenchmarkSuite::benchmarkNames(), comparedTechniques(),
            [kb](const std::string &bench) {
                return ExperimentConfig::standard(bench).withL1ISize(
                    kb * 1024ull);
            });
        const SweepResults results = SweepRunner().run(sweep);
        const SweepReport report(sweep, results);
        const SeriesMatrix perf = report.throughputChange();
        const SeriesMatrix ihit = report.matrix(
            [](const RunResult &base, const RunResult &run) {
                return pointChange(base.iHitAll, run.iHitAll);
            });

        for (const TechniqueSpec &t : comparedTechniques()) {
            const std::string name = t.name;
            std::vector<std::string> row = {name};
            for (const std::string &bench :
                 BenchmarkSuite::benchmarkNames()) {
                row.push_back(
                    TextTable::num(ihit.get(bench, name), 0) + "/"
                    + TextTable::pct(perf.get(bench, name), 0));
            }
            row.push_back(TextTable::pct(
                geometricMeanPercent(perf.column(name)), 0));
            table.addRow(std::move(row));
        }
        std::printf("\n-- %u KB i-cache (cells: iHit pp / perf %%) "
                    "--\n%s",
                    kb, table.render().c_str());
    }
    std::printf("\nPaper: SchedTask +25/+23/+22%% gmean for "
                "16/32/64 KB.\n");
    return 0;
}
