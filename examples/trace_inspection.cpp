/**
 * @file
 * Reconstructing the paper's Figure 5 (the timeline of a thread's
 * execution): trace a run and print one thread's SuperFunction
 * lifecycle — dispatches, migrations between cores at SuperFunction
 * boundaries, blocks on devices, wakeups by bottom halves.
 *
 * Run: ./build/examples/trace_inspection [benchmark] [tid]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_num.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "Apache";
    const std::vector<std::string> &names =
        BenchmarkSuite::benchmarkNames();
    if (std::find(names.begin(), names.end(), bench) == names.end()) {
        std::fprintf(stderr, "trace_inspection: unknown benchmark '%s'\n",
                     bench.c_str());
        return 2;
    }
    ThreadId tid = 0;
    if (argc > 2) {
        const std::optional<std::uint64_t> value = parseUnsigned(argv[2]);
        if (!value || *value >= invalidThread) {
            std::fprintf(stderr,
                         "trace_inspection: invalid thread id '%s'\n",
                         argv[2]);
            return 2;
        }
        tid = static_cast<ThreadId>(*value);
    }

    printHeader("SuperFunction timeline (" + bench + ", thread "
                + std::to_string(tid) + ", SchedTask)");

    // Warm up so TAlloc has an allocation, then trace two epochs.
    ExperimentConfig cfg = ExperimentConfig::standard(bench, 1.0)
                               .withCores(8)
                               .withEpochCycles(60000)
                               .withEpochs(3, 2);
    cfg.machine.trace = true;
    const RunResult run = runOnce(cfg, TechniqueSpec{"SchedTask"});

    // Events carry types, not names: any suite's catalog names them.
    const BenchmarkSuite suite;
    std::printf("%-12s%-10s%-6s%-8ssuperfunction\n", "cycle", "event",
                "core", "tid");
    std::size_t shown = 0;
    for (const SfEvent &e : run.metrics.sfEvents) {
        if (e.tid != tid)
            continue;
        if (shown++ == 80) {
            std::printf("... (truncated)\n");
            break;
        }
        const SfTypeInfo *info = suite.catalog().bySfType(e.type);
        std::printf("%-12llu%-10s%-6u%-8u%s #%llu\n",
                    static_cast<unsigned long long>(e.when),
                    sfEventKindName(e.kind), e.core, e.tid,
                    info != nullptr ? info->name.c_str() : "?",
                    static_cast<unsigned long long>(e.sfId & 0xffffff));
    }
    std::printf("(the last %zu events of the window; showing thread %u "
                "only)\n",
                run.metrics.sfEvents.size(), tid);
    std::printf("\nRead the timeline like the paper's Figure 5: the "
                "thread's system-call SuperFunctions run on the "
                "cores TAlloc assigned to their types, and the "
                "application SuperFunction resumes on its own core "
                "after each call completes (migrate events).\n");
    return 0;
}
