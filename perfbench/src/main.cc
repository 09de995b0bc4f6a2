/**
 * @file
 * perfbench: the simulator's host-cost benchmark.
 *
 * Runs one workload (a figure-shaped set of simulations) on a fixed
 * number of worker threads and prints its metrics. With --trace 0 it
 * repeats the workload untraced for --seconds and reports the
 * end-to-end metrics over the passes; with --trace 1 it
 * runs one untraced pass, one pass with every scheduler hook timed,
 * and one pass with EpochTrace telemetry on, and reports the
 * per-layer ledger. Every pass is checked: results must match the
 * committed seed-1 digests, each other, and a SweepRunner re-run of
 * one cell bit for bit. The last stdout line is one JSON object;
 * see perfbench/README.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell.hh"
#include "common/math_utils.hh"
#include "common/parse_num.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Worker threads: min(4, nproc). */
    unsigned jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::string digestFile;
    bool updateDigests = false;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds N] [--trace 0|1]\n"
                 "                 [--digests FILE [--update-digests]] "
                 "[--commit SHA]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t min,
           std::uint64_t max)
{
    const auto v = parseUnsigned(text);
    if (!v || *v < min || *v > max)
        usage((std::string("invalid value for ") + flag + ": '" + text
               + "'")
                  .c_str());
    return *v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--update-digests") {
            o.updateDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseCount("--seed", value, 0, UINT64_MAX);
        else if (flag == "--seconds")
            o.seconds = static_cast<unsigned>(
                parseCount("--seconds", value, 1, 3600));
        else if (flag == "--trace")
            o.trace = parseCount("--trace", value, 0, 1) == 1;
        else if (flag == "--digests")
            o.digestFile = value;
        else if (flag == "--commit")
            o.commit = value;
        else
            usage(("unknown argument '" + flag + "'").c_str());
    }
    if (findWorkload(o.workload) == nullptr)
        usage(("unknown workload '" + o.workload
               + "' (cross_2x, filesrv_scale, cgp_2x)")
                  .c_str());
    if (o.updateDigests && (o.digestFile.empty() || o.seed != 1))
        usage("--update-digests needs --digests FILE and seed 1");
    return o;
}

/** Environment switches that would change what is measured. */
void
rejectEnvironment()
{
    // SCHEDTASK_FAST silently shrinks every window inside
    // ExperimentConfig::standard(); SCHEDTASK_TRACE_DIR would make the
    // self-test's SweepRunner write trace files.
    for (const char *name : {"SCHEDTASK_FAST", "SCHEDTASK_TRACE_DIR"}) {
        const char *v = std::getenv(name);
        if (v != nullptr && v[0] != '\0') {
            std::fprintf(stderr,
                         "perfbench: %s is set ('%s'); it changes what "
                         "is measured, unset it\n",
                         name, v);
            std::exit(2);
        }
    }
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? v : fallback;
}

std::string
isaMacros()
{
    std::string out;
    const auto add = [&out](bool on, const char *name) {
        if (on)
            out += out.empty() ? name : std::string(",") + name;
    };
#ifdef __SSE4_2__
    add(true, "SSE4_2");
#endif
#ifdef __AVX__
    add(true, "AVX");
#endif
#ifdef __AVX2__
    add(true, "AVX2");
#endif
#ifdef __BMI2__
    add(true, "BMI2");
#endif
#ifdef __FMA__
    add(true, "FMA");
#endif
#ifdef __AVX512F__
    add(true, "AVX512F");
#endif
    return out.empty() ? "baseline" : out;
}

/** The host/build manifest, one JSON object. */
std::string
manifestJson(const Options &o)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
#ifdef SCHEDTASK_CHECK_INVARIANTS
    const bool checked = true;
#else
    const bool checked = false;
#endif
    std::ostringstream os;
    os << "{\"manifest\": {\"workload\": " << jsonString(o.workload)
       << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"jobs\": " << o.jobs
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"optimize\": " << (optimized ? "true" : "false")
       << ", \"isa\": " << jsonString(isaMacros())
       << ", \"ndebug\": " << (ndebug ? "true" : "false")
       << ", \"checked_build\": " << (checked ? "true" : "false")
       << ", \"git_commit\": " << jsonString(o.commit)
       << ", \"SCHEDTASK_SIMD\": "
       << jsonString(envOr("SCHEDTASK_SIMD", ""))
       << ", \"SCHEDTASK_L0\": " << jsonString(envOr("SCHEDTASK_L0", ""))
       << "}}";
    return os.str();
}

/** One pass: every request of the sweep, on the worker pool. */
struct Pass
{
    std::vector<CellResult> cells;
    double wallS = 0.0;
};

Pass
runPass(const Sweep &sweep, CellMode mode, unsigned jobs)
{
    const std::vector<RunRequest> &requests = sweep.requests();
    Pass pass;
    pass.cells.resize(requests.size());
    const double start = wallSeconds();
    parallelFor(
        requests.size(),
        [&](std::size_t i) { pass.cells[i] = runCell(requests[i], mode); },
        jobs);
    pass.wallS = wallSeconds() - start;
    return pass;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Counts failed cells and reports why (threw / digest mismatch). */
class Checker
{
  public:
    explicit Checker(std::vector<std::string> labels)
        : labels_(std::move(labels))
    {
    }

    void
    attempt(std::size_t runs)
    {
        attempted_ += runs;
    }

    void
    fail(const std::string &why)
    {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    }

    /** Errors of a pass, and digest equality against `reference`
     *  (skipped when empty). */
    void
    checkPass(const Pass &pass,
              const std::vector<std::uint64_t> &reference,
              const char *what)
    {
        attempt(pass.cells.size());
        for (std::size_t i = 0; i < pass.cells.size(); ++i) {
            const std::string &label = labels_[i];
            const CellResult &cell = pass.cells[i];
            if (!cell.error.empty())
                fail(label + " threw: " + cell.error);
            else if (!reference.empty() && cell.digest != reference[i])
                fail(label + ": " + what + " digest differs");
        }
    }

    /** Digest equality against the committed seed-1 file. */
    void checkCommitted(const std::string &path, const Pass &pass);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::vector<std::string> labels_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

std::vector<std::uint64_t>
digestsOf(const Pass &pass)
{
    std::vector<std::uint64_t> out;
    for (const CellResult &cell : pass.cells)
        out.push_back(cell.digest);
    return out;
}

/** Committed digest file: "label<TAB>hex digest<TAB>insts<TAB>events". */
std::map<std::string, std::uint64_t>
readDigests(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        out[line.substr(0, tab)] =
            std::strtoull(line.c_str() + tab + 1, nullptr, 16);
    }
    return out;
}

void
writeDigests(const std::string &path,
             const std::vector<std::string> &labels, const Pass &pass)
{
    std::ofstream out(path);
    out << "# perfbench result digests, seed 1 (regenerate with "
           "perfbench/run.py --update-digests)\n"
        << "# label\tdigest\tinsts_retired\tapp_events\n";
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const SimMetrics &m = pass.cells[i].run.metrics;
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016" PRIx64,
                      pass.cells[i].digest);
        out << labels[i] << '\t' << hex << '\t'
            << m.instsRetired << '\t' << m.appEvents << '\n';
    }
    if (!out)
        usage(("cannot write " + path).c_str());
}

void
Checker::checkCommitted(const std::string &path, const Pass &pass)
{
    const std::map<std::string, std::uint64_t> committed =
        readDigests(path);
    if (committed.size() != pass.cells.size()) {
        fail("digest file " + path + " lists "
             + std::to_string(committed.size()) + " runs, the workload has "
             + std::to_string(pass.cells.size()));
        return;
    }
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const auto it = committed.find(labels_[i]);
        if (it == committed.end())
            fail(labels_[i] + ": no committed digest");
        else if (pass.cells[i].error.empty()
                 && it->second != pass.cells[i].digest)
            fail(labels_[i] + ": differs from the committed digest");
    }
}

/** Re-run the workload's self-test cell through SweepRunner and
 *  compare it with perfbench's own run of that cell. */
void
selfTest(Checker &checker, const WorkloadDef &def, const Sweep &sweep,
         const Pass &pass)
{
    const std::vector<RunRequest> &requests = sweep.requests();
    std::size_t index = requests.size();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].label() == def.selfTestLabel)
            index = i;
    }
    checker.attempt(1);
    if (index == requests.size()) {
        checker.fail(std::string("self-test cell ") + def.selfTestLabel
                     + " is not in the workload");
        return;
    }
    const RunRequest &req = requests[index];
    Sweep single;
    single.add(req.row, req.col, req.config, req.spec);
    SweepOptions options;
    options.jobs = 1;
    options.progress = false;
    std::vector<std::string> failures;
    const SweepResults results =
        SweepRunner(options).runPartial(single, failures);
    if (!failures.empty()) {
        checker.fail("self-test: " + failures.front());
        return;
    }
    if (resultDigest(results.at(req.label()))
        != resultDigest(pass.cells[index].run))
        checker.fail("self-test: " + req.label()
                     + " differs from its SweepRunner run");
}

/** |gmean change of the workload's gap columns - paper|, in pp. */
double
paperGap(const WorkloadDef &def, const Sweep &sweep, const Pass &pass)
{
    std::map<std::string, const RunResult *> byLabel;
    for (std::size_t i = 0; i < pass.cells.size(); ++i)
        byLabel[sweep.requests()[i].label()] = &pass.cells[i].run;
    std::vector<double> changes;
    for (const RunRequest &req : sweep.requests()) {
        if (std::find(def.gapCols.begin(), def.gapCols.end(), req.col)
            == def.gapCols.end())
            continue;
        const RunResult &base = *byLabel.at(req.baselineLabel);
        const RunResult &run = *byLabel.at(req.label());
        changes.push_back(
            def.appPerf
                ? percentChange(base.appPerformance(),
                                run.appPerformance())
                : percentChange(base.instThroughput(),
                                run.instThroughput()));
    }
    return std::fabs(geometricMeanPercent(changes) - def.paperPercent);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Named metrics in print order, with units and directions. */
class Report
{
  public:
    /** A metric of the result JSON. */
    void
    add(const std::string &name, double value, const char *unit,
        const char *better = "")
    {
        entries_.push_back({name, value, unit, better, true});
    }

    /** A line of the human-readable summary only. */
    void
    note(const std::string &name, double value, const char *unit,
         const char *better)
    {
        entries_.push_back({name, value, unit, better, false});
    }

    void
    count(const std::string &name, std::uint64_t value)
    {
        add(name, static_cast<double>(value), "count");
    }

    /** Human-readable lines, then the result as one JSON line. */
    void
    print(const Checker &checker) const
    {
        const bool correct = checker.failed() == 0;
        for (const Entry &e : entries_) {
            std::printf("%-28s %.6g %s%s%s\n", e.name.c_str(), e.value,
                        e.unit, e.better[0] != '\0' ? ", better " : "",
                        e.better);
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct ? "true" : "false", checker.attempted(),
                    checker.failed());
        const char *sep = "";
        for (const Entry &e : entries_) {
            if (!e.inJson)
                continue;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        sep, e.name.c_str(),
                        std::isfinite(e.value) ? e.value : 0.0, e.unit);
            sep = ", ";
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
        const char *better;
        bool inJson;
    };
    std::vector<Entry> entries_;
};

/** Sums over a pass's cells. */
struct Totals
{
    CellTimes t;
    MemCounts mem;
    HookTotals hooks;
    HookTotals stHooks; ///< SchedTask runs only
    CoreCounters core;
    std::uint64_t insts = 0, cycles = 0, migrations = 0, irqs = 0,
                  threads = 0;
    double cpuS = 0.0; ///< setup + measured-window thread CPU
};

Totals
sum(const Pass &pass)
{
    Totals s;
    for (const CellResult &c : pass.cells) {
        s.t.buildS += c.times.buildS;
        s.t.constructS += c.times.constructS;
        s.t.warmupS += c.times.warmupS;
        s.t.measureS += c.times.measureS;
        s.t.setupCpuS += c.times.setupCpuS;
        s.t.measureCpuS += c.times.measureCpuS;
        s.cpuS += c.times.setupCpuS + c.times.measureCpuS;
        s.mem += c.mem;
        s.hooks += c.hooks;
        if (c.schedTask) {
            s.stHooks += c.hooks;
            s.core += c.core;
        }
        const SimMetrics &m = c.run.metrics;
        s.insts += m.instsRetired;
        s.cycles += m.cycles;
        s.migrations += m.migrations;
        s.irqs += m.irqCount;
        s.threads += c.run.numThreads;
    }
    return s;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/**
 * --trace 0: untraced passes for at least --seconds.
 *
 * Other tenants of a shared host slow it by up to 2x over minutes,
 * which no repetition inside one run can average out. So every pass
 * is bracketed by host-speed probes, and its host times are scaled by
 * referenceChaseSeconds / (mean of the two probes): times are
 * reported at the reference host's speed. The summary lines also
 * print the raw wall time and the probe.
 */
void
endToEnd(const Options &o, const WorkloadDef &def, const Sweep &sweep,
         Checker &checker, Report &report)
{
    std::vector<Pass> passes;
    std::vector<double> probes = {hostChaseSeconds(o.jobs)};
    const double start = wallSeconds();
    // Passes until --seconds have elapsed. A pass longer than that
    // runs once, which keeps a run's length bounded on a slow host.
    while (passes.empty()
           || wallSeconds() - start < static_cast<double>(o.seconds)) {
        passes.push_back(runPass(sweep, CellMode{}, o.jobs));
        probes.push_back(hostChaseSeconds(o.jobs));
        checker.checkPass(passes.back(),
                          passes.size() == 1 ? std::vector<std::uint64_t>{}
                                             : digestsOf(passes.front()),
                          "repeat");
    }
    const Pass &first = passes.front();
    if (o.seed == 1 && !o.digestFile.empty())
        checker.checkCommitted(o.digestFile, first);
    selfTest(checker, def, sweep, first);

    std::vector<double> scale, wall, rawWall;
    for (std::size_t k = 0; k < passes.size(); ++k) {
        scale.push_back(2.0 * referenceChaseSeconds
                        / (probes[k] + probes[k + 1]));
        wall.push_back(passes[k].wallS * scale.back());
        rawWall.push_back(passes[k].wallS);
        std::fprintf(stderr,
                     "perfbench: pass %zu: %zu runs, wall %.3f s, host "
                     "probe %.3f/%.3f s\n",
                     k + 1, passes[k].cells.size(), passes[k].wallS,
                     probes[k], probes[k + 1]);
    }
    // Per run, the best of the passes for the measured window (other
    // tenants only ever add time) and the median for set-up, each
    // summed over the runs.
    double measureCpu = 0.0, setupCpu = 0.0;
    std::uint64_t insts = 0;
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
        std::vector<double> measure, setup;
        for (std::size_t k = 0; k < passes.size(); ++k) {
            const CellTimes &t = passes[k].cells[i].times;
            measure.push_back(t.measureCpuS * scale[k]);
            setup.push_back(t.setupCpuS * scale[k]);
        }
        measureCpu += *std::min_element(measure.begin(), measure.end());
        setupCpu += median(setup);
        insts += first.cells[i].run.metrics.instsRetired;
    }

    report.add("wall_s", median(wall), "s", "lower");
    report.add("sim_minsts_per_cpu_s",
               static_cast<double>(insts) / 1e6 / measureCpu, "M/s",
               "higher");
    report.add("setup_s", setupCpu, "s", "lower");
    report.add("peak_rss_mb", peakRssMb(), "MB", "lower");
    report.note("raw_wall_s", median(rawWall), "s", "lower");
    report.note("host_probe_s", median(probes), "s", "lower");
    // Exact at a fixed seed but seed-dependent, so printed here and
    // gated nowhere; the traced run records it in the ledger.
    report.note("paper_gap_pp", paperGap(def, sweep, first), "pp",
                "lower");
    report.note("failed_frac",
                static_cast<double>(checker.failed())
                    / static_cast<double>(checker.attempted()),
                "ratio", "lower");
}

/** --trace 1: untraced, hook-timed and EpochTrace passes. */
void
perLayer(const Options &o, const WorkloadDef &def, const Sweep &sweep,
         Checker &checker, Report &report)
{
    const Pass plain = runPass(sweep, CellMode{}, o.jobs);
    checker.checkPass(plain, {}, "");
    const std::vector<std::uint64_t> reference = digestsOf(plain);
    const Pass timed = runPass(sweep, CellMode{true, false}, o.jobs);
    checker.checkPass(timed, reference, "hook-timed");
    const Pass traced = runPass(sweep, CellMode{false, true}, o.jobs);
    checker.checkPass(traced, reference, "epoch-traced");
    if (o.seed == 1 && !o.digestFile.empty())
        checker.checkCommitted(o.digestFile, plain);
    selfTest(checker, def, sweep, plain);

    const Totals base = sum(plain);
    const Totals s = sum(timed);
    const double hookS = static_cast<double>(s.hooks.totalNs()) * 1e-9;
    const double selfS = s.t.measureS - hookS;

    // The per-run spans, one JSON line each, keyed by run label.
    std::vector<double> runS;
    const std::vector<std::string> labels = runLabels(sweep);
    for (std::size_t i = 0; i < timed.cells.size(); ++i) {
        const CellResult &c = timed.cells[i];
        runS.push_back(c.times.runS);
        std::fprintf(stderr,
                     "{\"span\": %s, \"run_s\": %.6f, \"build_s\": %.6f, "
                     "\"construct_s\": %.6f, \"warmup_s\": %.6f, "
                     "\"measure_s\": %.6f, \"hooks_s\": %.6f}\n",
                     jsonString(labels[i]).c_str(), c.times.runS,
                     c.times.buildS, c.times.constructS, c.times.warmupS,
                     c.times.measureS,
                     static_cast<double>(c.hooks.totalNs()) * 1e-9);
    }

    report.count("harness.runs", timed.cells.size());
    report.add("harness.run_s.p50", median(runS), "s");
    report.add("harness.run_s.max",
               *std::max_element(runS.begin(), runS.end()), "s");
    report.add("harness.parallel_eff",
               s.cpuS / (o.jobs * timed.wallS), "ratio");
    report.add("trace.overhead", (s.cpuS - base.cpuS) / base.cpuS,
               "ratio");

    report.add("workload.build_s", s.t.buildS, "s");
    report.count("workload.threads", s.threads);

    report.add("sim.construct_s", s.t.constructS, "s");
    report.add("sim.warmup_s", s.t.warmupS, "s");
    report.add("sim.measure_s", s.t.measureS, "s");
    report.add("sim.self_s", selfS, "s");
    report.add("sim.ns_per_inst",
               s.t.measureS * 1e9 / static_cast<double>(s.insts), "ns");
    report.count("sim.insts", s.insts);
    report.count("sim.cycles", s.cycles);
    report.count("sim.migrations", s.migrations);
    report.count("sim.irqs", s.irqs);

    const MemCounts &m = s.mem;
    report.count("mem.l1i.accesses", m.l1iAccesses);
    report.count("mem.l1i.misses", m.l1iAccesses - m.l1iHits);
    report.count("mem.l1d.accesses", m.l1dAccesses);
    report.count("mem.l1d.misses", m.l1dAccesses - m.l1dHits);
    report.count("mem.l2.accesses", m.l2Accesses);
    report.count("mem.l2.misses", m.l2Accesses - m.l2Hits);
    report.add("mem.itlb.hit_rate", ratio(m.itlbHits, m.itlbAccesses),
               "ratio");
    report.add("mem.dtlb.hit_rate", ratio(m.dtlbHits, m.dtlbAccesses),
               "ratio");
    report.count("mem.coherence_invals", m.coherenceInvals);
    report.count("mem.remote_fills", m.remoteFills);
    report.count("mem.fetch_stall_cycles", m.fetchStallCycles);
    report.count("mem.data_stall_cycles", m.dataStallCycles);
    report.count("mem.prefetches", m.prefetches);
    report.add("mem.ns_per_access",
               selfS * 1e9
                   / static_cast<double>(m.l1iAccesses + m.l1dAccesses),
               "ns");

    for (unsigned h = 0; h < numHooks; ++h) {
        const std::string stem = std::string("sched.") + hookNames[h];
        report.count(stem + ".calls", s.hooks.calls[h]);
        report.add(stem + ".s", static_cast<double>(s.hooks.ns[h]) * 1e-9,
                   "s");
    }
    report.add("sched.share", hookS / s.t.measureS, "ratio");

    const HookTotals &st = s.stHooks;
    const unsigned epoch = static_cast<unsigned>(Hook::Epoch);
    std::uint64_t tmigrateNs = 0;
    for (Hook h : {Hook::Start, Hook::Resume, Hook::Wakeup, Hook::Yield,
                   Hook::PickNext})
        tmigrateNs += st.ns[static_cast<unsigned>(h)];
    report.count("core.talloc.calls", st.calls[epoch]);
    report.add("core.talloc.s", static_cast<double>(st.ns[epoch]) * 1e-9,
               "s");
    report.add("core.tmigrate.s", static_cast<double>(tmigrateNs) * 1e-9,
               "s");
    report.count("core.steals.same", s.core.sameSteals);
    report.count("core.steals.similar", s.core.similarSteals);
    report.count("core.reallocations", s.core.reallocations);

    const Totals tr = sum(traced);
    report.add("stats.epoch_trace.overhead",
               (tr.cpuS - base.cpuS) / base.cpuS, "ratio");
    report.add("paper_gap_pp", paperGap(def, sweep, plain), "pp");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectEnvironment();
    const Options o = parseArgs(argc, argv);
    const WorkloadDef &def = *findWorkload(o.workload);
    const Sweep sweep = def.build(o.seed);

    if (o.updateDigests) {
        // jobs=1 here and jobs=N in every check proves the counts do
        // not depend on the job count.
        Checker checker(runLabels(sweep));
        const Pass pass = runPass(sweep, CellMode{}, 1);
        checker.checkPass(pass, {}, "");
        if (checker.failed() != 0)
            return 1;
        writeDigests(o.digestFile, runLabels(sweep), pass);
        std::fprintf(stderr, "perfbench: wrote %zu digests to %s\n",
                     pass.cells.size(), o.digestFile.c_str());
        return 0;
    }

    std::printf("%s\n", manifestJson(o).c_str());
    Checker checker(runLabels(sweep));
    Report report;
    if (o.trace)
        perLayer(o, def, sweep, checker, report);
    else
        endToEnd(o, def, sweep, checker, report);
    report.print(checker);
    std::fflush(stdout);
    return 0;
}
