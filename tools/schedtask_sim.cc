/**
 * @file
 * schedtask-sim: command-line front end to the simulator.
 *
 * Runs one benchmark under one scheduling technique through the
 * sweep runner and prints the headline metrics (including the
 * Figure 8 cache and TLB hit rates), optionally against the Linux
 * baseline and with per-run epoch traces.
 *
 * `schedtask-sim --help` lists the options.
 *
 * Every invalid input (a malformed number, an unknown name, a
 * machine the simulator cannot build) is rejected with exit code 2
 * and a message before any simulation starts.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_num.hh"
#include "sched/registry.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace schedtask;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::printf(
        "schedtask-sim: run one benchmark under one scheduling "
        "technique\n\n"
        "  --benchmark NAME   one of the 8 paper benchmarks "
        "(default Apache)\n"
        "  --bag NAME         multi-programmed bag MPW-A..MPW-F\n"
        "  --technique NAME   any registered technique, in any case\n"
        "                     (see --list-techniques; default "
        "SchedTask)\n"
        "  --list-techniques  print registered techniques, sorted, "
        "and exit\n"
        "  --cores N          baseline cores (default 32)\n"
        "  --scale X          workload scale (default 2.0)\n"
        "  --warmup N         warmup epochs (default 4)\n"
        "  --measure N        measured epochs (default 6)\n"
        "  --fast             shortcut for --warmup 1 --measure 2\n"
        "  --heatmap-bits N   Page-heatmap width (default 512)\n"
        "  --seed N           master seed (default 1)\n"
        "  --jobs N           worker threads for --compare (default:\n"
        "                     SCHEDTASK_JOBS or the hardware "
        "concurrency)\n"
        "  --trace-dir DIR    per-run Chrome trace + JSONL epoch\n"
        "                     telemetry under DIR\n"
        "  --compare          also run the Linux baseline\n");
    std::exit(code);
}

/** "--technique NAME" resolved against the registry, in canonical
 *  casing. An unknown name exits 2 listing the registered ones. */
TechniqueSpec
parseTechniqueArg(const std::string &name)
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    const SchedulerInfo *info = reg.find(name);
    if (info == nullptr) {
        std::fprintf(stderr,
                     "schedtask-sim: unknown technique '%s'\n"
                     "registered techniques: %s\n",
                     name.c_str(), joinNames(reg.names()).c_str());
        std::exit(2);
    }
    return TechniqueSpec{info->name};
}

/** --list-techniques: names and descriptions, sorted. */
[[noreturn]] void
listTechniques()
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    std::printf("registered techniques:\n");
    for (const std::string &name : reg.names()) {
        const SchedulerInfo *info = reg.find(name);
        std::printf("  %-18s %s%s\n", name.c_str(),
                    info->description.c_str(),
                    info->isBaseline ? " [baseline]" : "");
    }
    std::exit(0);
}

/** A parsed flag value; exits 2 with its error when there is one. */
template <typename T>
T
require(const FlagValue<T> &flag)
{
    if (!flag.error.empty()) {
        std::fprintf(stderr, "schedtask-sim: %s\n", flag.error.c_str());
        std::exit(2);
    }
    return flag.value;
}

/** An unsigned flag value in [min, max of T]. */
template <typename T>
T
requireUnsigned(const char *flag, const char *text, T min)
{
    return static_cast<T>(require(unsignedFlag(
        flag, text, min, std::numeric_limits<T>::max())));
}

/** The headline metrics of one run, with the Figure 8 hit rates. */
TextTable
headlineTable(const RunResult &r)
{
    auto pct = [](double rate) { return TextTable::num(rate * 100.0, 2); };
    TextTable table({"metric", "value"});
    table.addRow({"cores", std::to_string(r.numCores)});
    table.addRow({"threads", std::to_string(r.numThreads)});
    table.addRow({"IPC/core", TextTable::num(r.metrics.ipc(r.numCores), 3)});
    table.addRow({"Ginsts/s", TextTable::num(r.instThroughput() / 1e9, 2)});
    table.addRow({"app events/s (x1e6)",
                  TextTable::num(r.appPerformance() / 1e6, 2)});
    table.addRow({"idle (%)", TextTable::num(r.idlePercent())});
    table.addRow({"migrations/1e9 insts",
                  TextTable::num(r.migrationsPerBillionInsts(), 0)});
    table.addRow({"i-cache hit, app (%)", pct(r.iHitApp)});
    table.addRow({"i-cache hit, OS (%)", pct(r.iHitOs)});
    table.addRow({"i-cache hit, all (%)", pct(r.iHitAll)});
    table.addRow({"d-cache hit, app (%)", pct(r.dHitApp)});
    table.addRow({"d-cache hit, OS (%)", pct(r.dHitOs)});
    table.addRow({"iTLB hit (%)", pct(r.itlbHit)});
    table.addRow({"dTLB hit (%)", pct(r.dtlbHit)});
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "Apache";
    std::optional<std::string> bag;
    TechniqueSpec spec; // defaults to SchedTask
    unsigned cores = 32;
    double scale = 2.0;
    unsigned warmup = 4, measure = 6;
    unsigned heatmap_bits = 512;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    bool want_compare = false;
    std::string trace_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--benchmark") {
            benchmark = next();
        } else if (arg == "--bag") {
            bag = next();
        } else if (arg == "--technique") {
            spec = parseTechniqueArg(next());
        } else if (arg == "--list-techniques") {
            listTechniques();
        } else if (arg == "--cores") {
            cores = requireUnsigned<unsigned>("--cores", next(), 1);
        } else if (arg == "--scale") {
            scale = require(positiveDoubleFlag("--scale", next()));
        } else if (arg == "--warmup") {
            warmup = requireUnsigned<unsigned>("--warmup", next(), 0);
        } else if (arg == "--measure") {
            measure = requireUnsigned<unsigned>("--measure", next(), 1);
        } else if (arg == "--fast") {
            warmup = 1;
            measure = 2;
        } else if (arg == "--heatmap-bits") {
            heatmap_bits =
                requireUnsigned<unsigned>("--heatmap-bits", next(), 1);
        } else if (arg == "--seed") {
            seed = requireUnsigned<std::uint64_t>("--seed", next(), 0);
        } else if (arg == "--jobs") {
            jobs = requireUnsigned<unsigned>("--jobs", next(), 1);
        } else if (arg == "--compare") {
            want_compare = true;
        } else if (arg == "--trace-dir") {
            trace_dir = next();
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }

    if (bag) {
        const std::vector<std::string> &bags = Workload::bagNames();
        if (std::find(bags.begin(), bags.end(), *bag) == bags.end()) {
            std::fprintf(stderr,
                         "schedtask-sim: unknown bag '%s' (known: %s)\n",
                         bag->c_str(), joinNames(bags).c_str());
            return 2;
        }
    }

    ExperimentConfig cfg;
    cfg.parts = bag ? Workload::bagParts(*bag)
                    : std::vector<WorkloadPart>{{benchmark, scale}};
    cfg.baselineCores = cores;
    cfg.warmupEpochs = warmup;
    cfg.measureEpochs = measure;
    cfg.machine.heatmapBits = heatmap_bits;
    cfg.machine.seed = seed;

    // Unknown benchmarks and unbuildable machines are usage errors,
    // reported before any run starts.
    if (const std::optional<std::string> error = cfg.validate(spec)) {
        std::fprintf(stderr, "schedtask-sim: %s\n", error->c_str());
        return 2;
    }
    const bool compare_to_baseline = want_compare
        && !SchedulerRegistry::instance().isBaseline(spec.name);

    // --compare runs the Linux baseline and the technique on
    // concurrent worker threads (--jobs or SCHEDTASK_JOBS); both
    // runs see --seed verbatim. --trace-dir writes one trace-file
    // pair per run label.
    const std::string run_name = spec.str();
    Sweep sweep;
    sweep.deriveSeeds(false);
    if (compare_to_baseline)
        sweep.addComparison("run", run_name, cfg, spec);
    else
        sweep.add("run", run_name, cfg, spec);
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.traceDir = trace_dir;
    const SweepResults results = SweepRunner(opts).run(sweep);
    const RunResult &r = results.at("run", run_name);

    printHeader(run_name + " on " + (bag ? *bag : benchmark));
    std::printf("%s\n", headlineTable(r).render().c_str());
    if (compare_to_baseline) {
        const RunResult &base = results.at(baselineLabelFor("run", cfg));
        std::printf("vs Linux baseline: throughput %+0.1f%%, "
                    "app performance %+0.1f%%\n\n",
                    percentChange(base.instThroughput(),
                                  r.instThroughput()),
                    percentChange(base.appPerformance(),
                                  r.appPerformance()));
    }
    if (!trace_dir.empty())
        std::printf("epoch traces written under %s/\n", trace_dir.c_str());
    return 0;
}
