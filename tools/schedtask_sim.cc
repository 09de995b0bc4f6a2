/**
 * @file
 * schedtask-sim: command-line front end to the simulator.
 *
 * Runs one benchmark under one scheduling technique and prints the
 * headline metrics, optionally a full gem5-style stats dump, epoch
 * telemetry exports and a SuperFunction trace excerpt.
 *
 * Usage:
 *   schedtask-sim [options]
 *     --benchmark NAME   Find|Iscp|Oscp|Apache|DSS|FileSrv|
 *                        MailSrvIO|OLTP (default Apache)
 *     --bag NAME         run a multi-programmed bag (MPW-A..MPW-F)
 *                        instead of a single benchmark
 *     --technique SPEC   NAME[:key=val,...] — any technique in the
 *                        scheduler registry, with per-technique
 *                        options (default SchedTask); see
 *                        --list-techniques
 *     --list-techniques  print registered techniques and their
 *                        option keys, sorted, and exit
 *     --cores N          baseline cores (default 32)
 *     --scale X          workload scale (default 2.0)
 *     --warmup N         warmup epochs (default 4)
 *     --measure N        measured epochs (default 6)
 *     --fast             shortcut for --warmup 1 --measure 2
 *     --heatmap-bits N   Page-heatmap width (default 512)
 *     --steal POLICY     none|same|similar|busiest (default similar)
 *     --simd LEVEL       scalar|avx2|avx512|auto — heatmap kernel
 *                        dispatch (default: SCHEDTASK_SIMD or auto);
 *                        the choice is logged once at startup
 *     --seed N           master seed (default 1)
 *     --jobs N           worker threads for --compare (default:
 *                        SCHEDTASK_JOBS or the hardware concurrency)
 *     --stats            print the full stats dump
 *     --json             print the stats dump as JSON
 *     --viz              print per-core utilization bars and
 *                        (SchedTask) the allocation table
 *     --trace [FILE]     write a Chrome trace-event file of the
 *                        measured epochs (default
 *                        schedtask.trace.json); open in Perfetto
 *     --trace-jsonl FILE write epoch telemetry as JSON Lines
 *     --trace-dir DIR    with --compare: per-run trace files under
 *                        DIR (one pair per run label)
 *     --sf-trace [TID]   print a SuperFunction trace excerpt
 *     --compare          also run the Linux baseline and print deltas
 *     --help
 *
 * Invalid numeric flag values (e.g. "--cores xyz") are rejected
 * with exit code 2 instead of being silently read as 0.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/parse_num.hh"
#include "common/simd.hh"
#include "core/page_heatmap.hh"
#include "core/schedtask_sched.hh"
#include "sched/registry.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "harness/trace_export.hh"
#include "harness/visualize.hh"
#include "mem/directory.hh"
#include "sim/machine.hh"
#include "sim/sf_trace.hh"
#include "stats/stat_set.hh"
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
        "  --technique SPEC   NAME[:key=val,...], any registered "
        "technique\n"
        "                     (see --list-techniques; default "
        "SchedTask)\n"
        "  --list-techniques  print registered techniques and their\n"
        "                     option keys, sorted, and exit\n"
        "  --cores N          baseline cores (default 32)\n"
        "  --scale X          workload scale (default 2.0)\n"
        "  --warmup N         warmup epochs (default 4)\n"
        "  --measure N        measured epochs (default 6)\n"
        "  --fast             shortcut for --warmup 1 --measure 2\n"
        "  --heatmap-bits N   Page-heatmap width (default 512)\n"
        "  --steal POLICY     none|same|similar|busiest\n"
        "  --simd LEVEL       scalar|avx2|avx512|auto heatmap kernel\n"
        "                     dispatch (default: SCHEDTASK_SIMD or "
        "auto)\n"
        "  --seed N           master seed (default 1)\n"
        "  --jobs N           worker threads for --compare (default:\n"
        "                     SCHEDTASK_JOBS or the hardware "
        "concurrency)\n"
        "  --stats            print the full stats dump\n"
        "  --json             print the stats dump as JSON\n"
        "  --viz              print per-core utilization bars and\n"
        "                     (SchedTask) the allocation table\n"
        "  --trace [FILE]     write a Chrome trace-event file of the\n"
        "                     measured epochs (default\n"
        "                     schedtask.trace.json); open in Perfetto\n"
        "  --trace-jsonl FILE write epoch telemetry as JSON Lines\n"
        "  --trace-dir DIR    with --compare: per-run traces in DIR\n"
        "  --sf-trace [TID]   print a SuperFunction trace excerpt\n"
        "  --compare          also run the Linux baseline\n");
    std::exit(code);
}

/**
 * Parse and validate "--technique NAME[:key=val,...]" against the
 * registry. Unknown names exit 2 listing the registered techniques;
 * grammar errors and unknown option keys exit 2 with the registry's
 * diagnostic. Option *values* are validated when the scheduler is
 * built (see probeTechnique()).
 */
TechniqueSpec
parseTechniqueArg(const std::string &text)
{
    try {
        TechniqueSpec spec = parseTechniqueSpec(text);
        const SchedulerRegistry &reg = SchedulerRegistry::instance();
        const SchedulerInfo *info = reg.find(spec.name);
        if (info == nullptr) {
            std::string names;
            for (const std::string &name : reg.names())
                names += names.empty() ? name : ", " + name;
            std::fprintf(stderr,
                         "schedtask-sim: unknown technique '%s'\n"
                         "registered techniques: %s\n",
                         spec.name.c_str(), names.c_str());
            std::exit(2);
        }
        spec.name = info->name; // canonical display casing
        reg.validateOptions(*info, spec.options);
        return spec;
    } catch (const SchedulerOptionError &e) {
        std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
        std::exit(2);
    }
}

/** Build-and-discard the scheduler before any simulation starts, so
 *  that these are usage errors (exit 2): malformed option values, a
 *  core count (after coresRequired/configureMachine) the full-map
 *  coherence directory cannot track, and a heatmap width PageHeatmap
 *  does not accept. */
void
probeTechnique(const TechniqueSpec &spec, const ExperimentConfig &cfg)
{
    std::unique_ptr<Scheduler> sched;
    try {
        sched = makeScheduler(spec, cfg.schedTask);
    } catch (const SchedulerOptionError &e) {
        std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
        std::exit(2);
    }
    MachineParams mp = cfg.machine;
    mp.numCores = sched->coresRequired(cfg.baselineCores);
    sched->configureMachine(mp);
    if (mp.numCores < 1 || mp.numCores > CoherenceDirectory::maxCores) {
        std::fprintf(stderr,
                     "schedtask-sim: %s needs %u cores for --cores %u; "
                     "the simulator supports 1..%u\n",
                     spec.name.c_str(), mp.numCores, cfg.baselineCores,
                     CoherenceDirectory::maxCores);
        std::exit(2);
    }
    if (!PageHeatmap::validWidth(mp.heatmapBits)) {
        std::fprintf(stderr,
                     "schedtask-sim: invalid value '%u' for "
                     "--heatmap-bits (expected a power of two in "
                     "[64, 65536])\n",
                     mp.heatmapBits);
        std::exit(2);
    }
}

/** --list-techniques: names + option keys, deterministically
 *  sorted (registry names are sorted; option keys sorted at
 *  registration). */
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
        for (const SchedulerOptionSpec &opt : info->options)
            std::printf("    %-18s %s\n", opt.key.c_str(),
                        opt.help.c_str());
    }
    std::printf("universal options (any technique):\n");
    for (const SchedulerOptionSpec &opt :
         SchedulerRegistry::universalOptions())
        std::printf("    %-18s %s\n", opt.key.c_str(),
                    opt.help.c_str());
    std::exit(0);
}

/** Strictly parsed unsigned flag value; exits 2 on bad input. */
std::uint64_t
requireUnsigned(const char *flag, const char *text, std::uint64_t min)
{
    const std::optional<std::uint64_t> value = parseUnsigned(text);
    if (!value || *value < min) {
        std::fprintf(stderr,
                     "schedtask-sim: invalid value '%s' for %s "
                     "(expected an unsigned integer >= %llu)\n",
                     text, flag,
                     static_cast<unsigned long long>(min));
        std::exit(2);
    }
    return *value;
}

/** Strictly parsed positive double flag value; exits 2 on bad input. */
double
requirePositiveDouble(const char *flag, const char *text)
{
    const std::optional<double> value = parseDouble(text);
    if (!value || *value <= 0.0) {
        std::fprintf(stderr,
                     "schedtask-sim: invalid value '%s' for %s "
                     "(expected a number > 0)\n",
                     text, flag);
        std::exit(2);
    }
    return *value;
}

/** The headline-metrics table shared by both run paths. */
TextTable
headlineTable(const SimMetrics &m, unsigned num_cores,
              unsigned num_threads, double freq_ghz)
{
    TextTable table({"metric", "value"});
    table.addRow({"cores", std::to_string(num_cores)});
    table.addRow({"threads", std::to_string(num_threads)});
    table.addRow({"IPC/core", TextTable::num(m.ipc(num_cores), 3)});
    table.addRow({"Ginsts/s",
                  TextTable::num(m.instThroughput(freq_ghz) / 1e9,
                                 2)});
    table.addRow({"app events/s (x1e6)",
                  TextTable::num(
                      m.appEventsPerSecond(freq_ghz) / 1e6, 2)});
    table.addRow({"idle (%)",
                  TextTable::num(m.idleFraction(num_cores) * 100.0)});
    table.addRow({"migrations/1e9 insts",
                  TextTable::num(
                      m.instsRetired == 0
                          ? 0.0
                          : 1e9 * static_cast<double>(m.migrations)
                              / static_cast<double>(m.instsRetired),
                      0)});
    return table;
}

StealPolicy
parseSteal(const std::string &name)
{
    if (name == "none")
        return StealPolicy::None;
    if (name == "same")
        return StealPolicy::SameOnly;
    if (name == "similar")
        return StealPolicy::SameAndSimilar;
    if (name == "busiest")
        return StealPolicy::BusiestFirst;
    std::fprintf(stderr, "unknown steal policy: %s\n", name.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "Apache";
    std::optional<std::string> bag;
    TechniqueSpec spec; // defaults to SchedTask, no options
    unsigned cores = 32;
    double scale = 2.0;
    unsigned warmup = 4, measure = 6;
    unsigned heatmap_bits = 512;
    StealPolicy steal = StealPolicy::SameAndSimilar;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    bool want_stats = false, want_compare = false;
    bool want_json = false, want_viz = false;
    std::optional<ThreadId> sf_trace_tid;
    bool want_sf_trace = false;
    std::optional<std::string> trace_file;
    std::optional<std::string> trace_jsonl_file;
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
            cores = static_cast<unsigned>(
                requireUnsigned("--cores", next(), 1));
        } else if (arg == "--scale") {
            scale = requirePositiveDouble("--scale", next());
        } else if (arg == "--warmup") {
            warmup = static_cast<unsigned>(
                requireUnsigned("--warmup", next(), 0));
        } else if (arg == "--measure") {
            measure = static_cast<unsigned>(
                requireUnsigned("--measure", next(), 1));
        } else if (arg == "--fast") {
            warmup = 1;
            measure = 2;
        } else if (arg == "--heatmap-bits") {
            heatmap_bits = static_cast<unsigned>(
                requireUnsigned("--heatmap-bits", next(), 1));
        } else if (arg == "--steal") {
            steal = parseSteal(next());
        } else if (arg == "--simd") {
            const char *text = next();
            const std::optional<simd::IsaLevel> level =
                simd::parseLevel(text);
            if (!level) {
                std::fprintf(stderr,
                             "schedtask-sim: invalid value '%s' for "
                             "--simd (expected "
                             "scalar|avx2|avx512|auto)\n",
                             text);
                std::exit(2);
            }
            if (!simd::select(*level)) {
                std::fprintf(stderr,
                             "schedtask-sim: --simd %s is not "
                             "supported by this CPU\n",
                             text);
                std::exit(2);
            }
        } else if (arg == "--seed") {
            seed = requireUnsigned("--seed", next(), 0);
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                requireUnsigned("--jobs", next(), 1));
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--json") {
            want_json = true;
        } else if (arg == "--viz") {
            want_viz = true;
        } else if (arg == "--compare") {
            want_compare = true;
        } else if (arg == "--trace") {
            trace_file = "schedtask.trace.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                trace_file = argv[++i];
        } else if (arg == "--trace-jsonl") {
            trace_jsonl_file = next();
        } else if (arg == "--trace-dir") {
            trace_dir = next();
        } else if (arg == "--sf-trace") {
            want_sf_trace = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                const std::uint64_t tid = requireUnsigned(
                    "--sf-trace", argv[++i], 0);
                sf_trace_tid = static_cast<ThreadId>(tid);
            }
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }

    // Resolving the level also applies (and validates) any
    // SCHEDTASK_SIMD environment override. Logged to stderr so runs
    // captured for bit-exactness comparisons stay clean on stdout.
    std::fprintf(stderr, "schedtask-sim: simd dispatch %s\n",
                 simd::levelName(simd::activeLevel()));

    ExperimentConfig cfg;
    cfg.parts = bag ? Workload::bagParts(*bag)
                    : std::vector<WorkloadPart>{{benchmark, scale}};
    cfg.baselineCores = cores;
    cfg.warmupEpochs = warmup;
    cfg.measureEpochs = measure;
    cfg.machine.heatmapBits = heatmap_bits;
    cfg.machine.seed = seed;
    cfg.schedTask.stealPolicy = steal;

    // Surface malformed option *values* (keys were checked at parse
    // time) and unbuildable machines as usage errors before any
    // simulation starts.
    probeTechnique(spec, cfg);
    const bool is_baseline =
        SchedulerRegistry::instance().isBaseline(spec.name);

    const std::string run_name = spec.str();
    const std::string title =
        run_name + " on " + (bag ? *bag : benchmark);
    const bool wants_trace_files =
        trace_file.has_value() || trace_jsonl_file.has_value();
    const bool needs_machine = want_stats || want_json || want_viz
        || want_sf_trace || wants_trace_files;

    if (!needs_machine) {
        // No stats/viz/trace attachments requested: go through the
        // sweep API, so --compare runs the Linux baseline and the
        // technique on concurrent worker threads (--jobs or
        // SCHEDTASK_JOBS; both runs still see --seed verbatim).
        // --trace-dir writes one trace-file pair per run label.
        Sweep sweep;
        sweep.deriveSeeds(false);
        if (want_compare && !is_baseline)
            sweep.addComparison("run", run_name, cfg, spec);
        else
            sweep.add("run", run_name, cfg, spec);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.traceDir = trace_dir;
        const SweepResults results = SweepRunner(opts).run(sweep);
        const RunResult &r = results.at("run", run_name);

        printHeader(title);
        std::printf("%s\n",
                    headlineTable(r.metrics, r.numCores,
                                  r.numThreads, r.freqGhz)
                        .render()
                        .c_str());
        if (want_compare && !is_baseline) {
            const RunResult &base =
                results.at(baselineLabelFor("run", cfg));
            std::printf("vs Linux baseline: throughput %+0.1f%%, "
                        "app performance %+0.1f%%\n\n",
                        percentChange(base.instThroughput(),
                                      r.instThroughput()),
                        percentChange(base.appPerformance(),
                                      r.appPerformance()));
        }
        if (!trace_dir.empty()) {
            std::printf("epoch traces written under %s/\n",
                        trace_dir.c_str());
        }
        return 0;
    }

    // Build the run by hand so stats/trace can be attached.
    BenchmarkSuite suite;
    Workload workload =
        Workload::build(suite, cfg.parts, cfg.baselineCores);
    auto sched = makeScheduler(spec, cfg.schedTask);
    MachineParams mp = cfg.machine;
    mp.numCores = sched->coresRequired(cfg.baselineCores);
    sched->configureMachine(mp);
    mp.trace = wants_trace_files;
    Machine machine(mp, cfg.hierarchy, suite, workload, *sched);

    machine.run(static_cast<Cycles>(warmup) * mp.epochCycles);
    machine.resetStats();
    SfTracer tracer(1 << 18);
    if (want_sf_trace)
        machine.attachTracer(&tracer);
    machine.run(static_cast<Cycles>(measure) * mp.epochCycles);

    const SimMetrics m = machine.metricsSnapshot();
    printHeader(title);
    std::printf("%s\n",
                headlineTable(
                    m, mp.numCores,
                    static_cast<unsigned>(machine.threads().size()),
                    mp.coreFrequencyGHz)
                    .render()
                    .c_str());

    if (want_compare && !is_baseline) {
        const RunResult base = runOnce(cfg, Technique::Linux);
        const double dthr = percentChange(
            base.instThroughput(),
            m.instThroughput(mp.coreFrequencyGHz));
        const double dapp = percentChange(
            base.appPerformance(),
            m.appEventsPerSecond(mp.coreFrequencyGHz));
        std::printf("vs Linux baseline: throughput %+0.1f%%, "
                    "app performance %+0.1f%%\n\n",
                    dthr, dapp);
    }

    if (want_stats || want_json) {
        StatSet stats;
        machine.exportStats(stats);
        if (want_stats)
            std::printf("%s\n", stats.dump().c_str());
        if (want_json)
            std::printf("%s", stats.dumpJson().c_str());
    }

    if (want_viz) {
        std::printf("%s\n",
                    utilizationBars(m, mp.numCores).c_str());
        if (const auto *st =
                dynamic_cast<const SchedTaskScheduler *>(
                    sched.get())) {
            std::printf("allocation table:\n%s\n",
                        allocationView(*st).c_str());
        }
    }

    if (wants_trace_files) {
        try {
            if (trace_file) {
                writeTextFile(*trace_file,
                              chromeTraceJson(m.epochSamples,
                                              mp.coreFrequencyGHz));
                std::printf("chrome trace written to %s "
                            "(open in ui.perfetto.dev)\n",
                            trace_file->c_str());
            }
            if (trace_jsonl_file) {
                writeTextFile(*trace_jsonl_file,
                              epochTraceJsonl(m.epochSamples));
                std::printf("epoch telemetry written to %s\n",
                            trace_jsonl_file->c_str());
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
            return 1;
        }
    }

    if (want_sf_trace) {
        std::printf("%s\n",
                    tracer
                        .render(sf_trace_tid.value_or(invalidThread),
                                60)
                        .c_str());
    }
    return 0;
}
