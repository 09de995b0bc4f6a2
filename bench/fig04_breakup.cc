/**
 * @file
 * Reproduces Figure 4: the instruction breakup of each benchmark
 * under the Linux baseline — the fraction of retired instructions
 * in application code, system call handlers, interrupt handlers and
 * bottom-half handlers. Scheduler-routine instructions are excluded
 * from the breakup, exactly as in the paper.
 *
 * Paper reference (approximate, read off Figure 4):
 *   Find      ~35 app / ~55 sys / low irq / low bh
 *   Iscp/Oscp high app (decrypt/encrypt) / ~25-30 sys
 *   Apache    ~35 app / ~35 sys / ~10 irq / ~20 bh
 *   DSS       ~80 app
 *   FileSrv   ~20 app / ~40 sys / ~35 bh
 *   MailSrvIO ~15 app / ~70 sys
 *   OLTP      similar to DSS
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main()
{
    printHeader("Figure 4: instruction breakup (%) under the Linux "
                "baseline, 2X workload");

    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        sweep.add(bench, "Linux", ExperimentConfig::standard(bench),
                  TechniqueSpec{"Linux"});
    }
    const SweepResults results = SweepRunner().run(sweep);

    TextTable table({"benchmark", "application", "system call",
                     "interrupt", "bottom half"});
    for (const std::string &bench : sweep.rows()) {
        const SimMetrics &m = results.at(bench, "Linux").metrics;
        table.addRow({
            bench,
            TextTable::num(
                m.categoryFraction(SfCategory::Application) * 100.0),
            TextTable::num(
                m.categoryFraction(SfCategory::SystemCall) * 100.0),
            TextTable::num(
                m.categoryFraction(SfCategory::Interrupt) * 100.0),
            TextTable::num(
                m.categoryFraction(SfCategory::BottomHalf) * 100.0),
        });
    }

    std::printf("%s\n", table.render().c_str());
    return 0;
}
