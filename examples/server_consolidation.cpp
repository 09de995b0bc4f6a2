/**
 * @file
 * Server consolidation scenario: a web server (Apache) and a
 * database (OLTP) share one 32-core machine — the appendix's MPW-B
 * bag. The example compares how each scheduling technique handles
 * the mixed instruction footprints, and prints the per-tenant
 * breakdown so the SLICC weakness (no cross-application sharing of
 * common OS code) is visible.
 *
 * Run: ./build/examples/server_consolidation [bag-name]
 */

#include <cstdio>
#include <string>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    const std::string bag = argc > 1 ? argv[1] : "MPW-B";

    printHeader("Server consolidation: " + bag);
    std::printf("tenants:");
    for (const WorkloadPart &part : Workload::bagParts(bag))
        std::printf(" %s@%.1fX", part.benchmark.c_str(), part.scale);
    std::printf("\n\n");

    // One sweep: the five techniques plus a single deduplicated
    // Linux baseline, spread over worker threads.
    const ExperimentConfig cfg = ExperimentConfig::standardBag(bag);
    Sweep sweep;
    for (const TechniqueSpec &t : comparedTechniques())
        sweep.addComparison(bag, t.name, cfg, t);
    const SweepResults results = SweepRunner().run(sweep);
    const SweepReport report(sweep, results);
    const RunResult &base = report.baselineOf(bag);

    TextTable table({"technique", "throughput vs Linux", "idle (%)",
                     "per-tenant insts change"});
    for (const TechniqueSpec &t : comparedTechniques()) {
        const RunResult &run = report.run(bag, t.name);
        std::string tenants;
        for (std::size_t p = 0; p < run.metrics.instsByPart.size();
             ++p) {
            if (p > 0)
                tenants += " / ";
            tenants += TextTable::pct(percentChange(
                static_cast<double>(base.metrics.instsByPart[p]),
                static_cast<double>(run.metrics.instsByPart[p])));
        }
        table.addRow({t.name,
                      TextTable::pct(percentChange(
                          base.instThroughput(),
                          run.instThroughput())) + " %",
                      TextTable::num(run.idlePercent()), tenants});
    }

    std::printf("\n%s\n", table.render().c_str());
    std::printf("Expected shape (paper appendix): SchedTask leads "
                "because its heatmaps detect common OS code across "
                "the tenants; SLICC cannot share segments between "
                "different applications.\n");
    return 0;
}
