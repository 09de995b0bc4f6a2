/**
 * @file
 * Reconstructing the paper's Figure 5 (the timeline of a thread's
 * execution): attach a tracer to a running machine and print one
 * thread's SuperFunction lifecycle — dispatches, migrations between
 * cores at SuperFunction boundaries, blocks on devices, wakeups by
 * bottom halves.
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
#include "core/schedtask_sched.hh"
#include "harness/reporting.hh"
#include "sim/machine.hh"
#include "sim/sf_trace.hh"
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

    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, bench, 1.0, 8);
    MachineParams mp;
    mp.numCores = 8;
    mp.epochCycles = 60000;
    SchedTaskScheduler sched;
    Machine machine(mp, HierarchyParams::paperDefault(), suite,
                    workload, sched);

    // Warm up so TAlloc has an allocation, then trace two epochs.
    machine.run(3 * mp.epochCycles);
    SfTracer tracer(1 << 18);
    machine.attachTracer(&tracer);
    machine.run(2 * mp.epochCycles);

    std::printf("%s\n", tracer.render(tid, 80).c_str());
    std::printf("(%llu events recorded in total; showing thread %u "
                "only)\n",
                static_cast<unsigned long long>(
                    tracer.totalRecorded()),
                tid);
    std::printf("\nRead the timeline like the paper's Figure 5: the "
                "thread's system-call SuperFunctions run on the "
                "cores TAlloc assigned to their types, and the "
                "application SuperFunction resumes on its own core "
                "after each call completes (migrate events).\n");
    return 0;
}
