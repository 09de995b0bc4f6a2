/**
 * @file
 * Reproduces the appendix's Figure 2: the techniques evaluated on a
 * baseline equipped with a call-graph instruction prefetcher (CGP,
 * hardware-only mode). The prefetcher removes 20-30% of the
 * baseline's i-cache misses, so specialization has less left to
 * win: the paper's SchedTask gmean drops from +23% to +19.6%.
 */

#include <cstdio>

#include "common/math_utils.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main()
{
    printHeader("Appendix Figure 2: throughput change (%) with a "
                "call-graph instruction prefetcher in the baseline");

    // Per benchmark: a no-prefetch Linux reference (for the miss-
    // savings line) plus the technique comparisons against the
    // CGP-equipped Linux baseline.
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        const ExperimentConfig plain =
            ExperimentConfig::standard(bench);
        const ExperimentConfig cgp =
            ExperimentConfig::standard(bench).withCgpPrefetcher();
        sweep.addBaseline(bench, plain);
        for (const TechniqueSpec &t : comparedTechniques())
            sweep.addComparison(bench, t.name, cgp, t);
    }
    const SweepResults results = SweepRunner().run(sweep);
    const SeriesMatrix matrix =
        SweepReport(sweep, results).throughputChange();

    double base_misses = 0.0, cgp_misses = 0.0;
    for (const std::string &bench : sweep.rows()) {
        const ExperimentConfig plain =
            ExperimentConfig::standard(bench);
        const ExperimentConfig cgp =
            ExperimentConfig::standard(bench).withCgpPrefetcher();
        base_misses +=
            1.0 - results.at(baselineLabelFor(bench, plain)).iHitAll;
        cgp_misses +=
            1.0 - results.at(baselineLabelFor(bench, cgp)).iHitAll;
    }

    std::printf("%s\n", matrix.renderWithGmean("benchmark").c_str());
    std::printf("CGP removed %.0f%% of the baseline's i-cache "
                "misses (paper: 20-30%%).\n",
                100.0 * (1.0 - cgp_misses / base_misses));
    std::printf("Paper gmean: SelectiveOffload +8.4, FlexSC -20.9, "
                "DisAggregateOS +8.6, SLICC +4.3, SchedTask +19.6\n");
    return 0;
}
