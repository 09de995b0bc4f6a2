/**
 * @file
 * schedtask-figures: regenerate the paper's figures and tables.
 *
 *   schedtask-figures [--fast] [--out DIR] [--trace-dir DIR] [name...]
 *
 * Each figure is a FigureSpec: the sweeps its numbers come from and
 * a renderer for their results. No names means every paper figure
 * (fig07_fast, a seconds-long smoke Figure 7, runs only when named).
 * The selected figures' sweeps go to one SweepRunner::runAll() call,
 * so a simulation several figures read (the 32-core 2X Table 2 cell
 * above all) runs once. Figures print to stdout, or to
 * DIR/<name>.txt with --out. --fast shrinks every run to one warm-up
 * and two measured epochs (smoke runs; a figure that sets its own
 * window keeps it). stderr gets the progress and, last, the
 * time to paper (wall and CPU seconds, getrusage over all threads).
 * Unknown names and options exit 2 before anything runs.
 */

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/math_utils.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** A figure's sweeps and their results, as its renderer reads them. */
struct FigureRun
{
    const std::vector<Sweep> &sweeps;
    std::vector<SweepResults> results; // results[i] for sweeps[i]

    SweepReport
    report(std::size_t i = 0) const
    {
        return SweepReport(sweeps[i], results[i]);
    }
};

/**
 * The warm-up and measured epochs of a figure's runs: the
 * ExperimentConfig defaults, or 1 + 2 under --fast. A builder's own
 * withEpochs() call still sets its window.
 */
struct Window
{
    unsigned warmup;
    unsigned measure;

    ExperimentConfig
    standard(const std::string &bench, double scale = 2.0) const
    {
        return ExperimentConfig::standard(bench, scale)
            .withEpochs(warmup, measure);
    }

    ExperimentConfig
    standardBag(const std::string &bag) const
    {
        return ExperimentConfig::standardBag(bag).withEpochs(warmup,
                                                             measure);
    }
};

/** One reproduced figure or table. */
struct FigureSpec
{
    /** Command-line selector and stem of `<name>.txt`. */
    const char *name;
    /** The sweeps the figure reads, over runs of the given window. */
    std::vector<Sweep> (*sweeps)(const Window &w);
    void (*render)(const FigureRun &run, std::FILE *out);
    /** False for smoke entries a full paper run leaves out. */
    bool inPaper = true;
};

using ConfigFn = std::function<ExperimentConfig(const std::string &)>;

/** Sweep::cross over the 8 paper benchmarks and the compared
 *  techniques, with each benchmark's configuration from `make`. */
Sweep
benchmarkCross(const ConfigFn &make)
{
    return Sweep::cross(BenchmarkSuite::benchmarkNames(),
                        comparedTechniques(), make);
}

using CellFn =
    std::function<std::string(const std::string &, const std::string &)>;

/**
 * The appendix-table layout: one row per compared technique, one
 * column per benchmark holding cell(benchmark, technique) (default:
 * the `perf` value), and a last column with the gmean of the
 * technique's `perf` column.
 */
std::string
techniqueTable(const SeriesMatrix &perf, const CellFn &cell = nullptr)
{
    std::vector<std::string> headers = {"technique"};
    for (const std::string &b : BenchmarkSuite::benchmarkNames())
        headers.push_back(b);
    headers.push_back("gmean");
    TextTable table(headers);
    for (const TechniqueSpec &t : comparedTechniques()) {
        std::vector<std::string> row = {t.name};
        for (const std::string &bench : BenchmarkSuite::benchmarkNames())
            row.push_back(cell ? cell(bench, t.name)
                               : TextTable::pct(perf.get(bench, t.name), 0));
        row.push_back(TextTable::pct(
            geometricMeanPercent(perf.column(t.name)), 0));
        table.addRow(std::move(row));
    }
    return table.render();
}

/** techniqueTable() of every sweep's throughput changes, each under
 *  a "-- label --" line. */
void
perfTables(const FigureRun &run, const std::vector<std::string> &labels,
           std::FILE *out)
{
    for (std::size_t s = 0; s < labels.size(); ++s) {
        const SeriesMatrix perf = run.report(s).throughputChange();
        std::fprintf(out, "\n-- %s --\n%s", labels[s].c_str(),
                     techniqueTable(perf).c_str());
    }
}

/*
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

std::vector<Sweep>
fig04Sweeps(const Window &w)
{
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        sweep.add(bench, "Linux", w.standard(bench),
                  TechniqueSpec{"Linux"});
    }
    return {sweep};
}

void
fig04Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Figure 4: instruction breakup (%) under the Linux "
                "baseline, 2X workload",
                out);
    TextTable table({"benchmark", "application", "system call",
                     "interrupt", "bottom half"});
    for (const std::string &bench : run.sweeps[0].rows()) {
        const SimMetrics &m = run.results[0].at(bench, "Linux").metrics;
        std::vector<std::string> row = {bench};
        for (SfCategory c :
             {SfCategory::Application, SfCategory::SystemCall,
              SfCategory::Interrupt, SfCategory::BottomHalf})
            row.push_back(TextTable::num(m.categoryFraction(c) * 100.0));
        table.addRow(std::move(row));
    }
    std::fprintf(out, "%s\n", table.render().c_str());
}

/*
 * Reproduces the Section 4.4 characterization: the cosine
 * similarity of the instruction breakups (per superFuncType) of
 * consecutive epochs. The paper observes low similarity while a
 * benchmark initializes, rising as the main loops start, and
 * stabilizing above 0.995 in steady state — the property that
 * justifies profiling one epoch to schedule the next.
 */

/** The first 10 epochs from a cold start (no warm-up) of each
 *  benchmark under Linux, traced for the per-epoch breakups
 *  (EpochSample::instsByType); the window stays fixed under
 *  --fast. */
constexpr unsigned sec44Epochs = 10;

std::vector<Sweep>
sec44Sweeps(const Window &w)
{
    Sweep sweep;
    sweep.deriveSeeds(false);
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        ExperimentConfig cfg =
            w.standard(bench).withEpochs(0, sec44Epochs);
        cfg.machine.trace = true;
        sweep.add(bench, "Linux", cfg, TechniqueSpec{"Linux"});
    }
    return {sweep};
}

/** Cosine similarity between two per-type instruction maps. */
double
epochSimilarity(
    const std::unordered_map<std::uint64_t, std::uint64_t> &a,
    const std::unordered_map<std::uint64_t, std::uint64_t> &b)
{
    std::unordered_set<std::uint64_t> keys;
    for (const auto &[k, v] : a)
        keys.insert(k);
    for (const auto &[k, v] : b)
        keys.insert(k);
    std::vector<double> va, vb;
    va.reserve(keys.size());
    vb.reserve(keys.size());
    for (std::uint64_t k : keys) {
        auto ia = a.find(k);
        auto ib = b.find(k);
        va.push_back(ia == a.end()
                         ? 0.0 : static_cast<double>(ia->second));
        vb.push_back(ib == b.end()
                         ? 0.0 : static_cast<double>(ib->second));
    }
    return cosineSimilarity(va, vb);
}

void
sec44Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Section 4.4: cosine similarity of instruction "
                "breakups across consecutive epochs (Linux baseline)",
                out);

    TextTable table({"benchmark", "e1-2", "e2-3", "e3-4", "e4-5",
                     "e5-6", "e6-7", "e7-8", "e8-9", "e9-10"});
    for (const std::string &bench : run.sweeps[0].rows()) {
        const auto &series =
            run.results[0].at(bench, "Linux").metrics.epochSamples;
        std::vector<std::string> cells = {bench};
        for (unsigned e = 0; e + 1 < sec44Epochs; ++e) {
            cells.push_back(
                e + 1 < series.size()
                    ? TextTable::num(
                          epochSimilarity(series[e].instsByType,
                                          series[e + 1].instsByType),
                          3)
                    : "-");
        }
        table.addRow(std::move(cells));
    }

    std::fprintf(out, "%s\n", table.render().c_str());
    std::fprintf(out, "Paper: similarity rises through bring-up and "
                      "stabilizes above 0.995 in steady state.\n");
}

/*
 * Reproduces Figure 7: change in application performance (%) of the
 * five core-specialization techniques relative to the Linux
 * baseline, for the 8 OS-intensive benchmarks at the doubled (2X)
 * ensemble workload of Section 6.1.
 *
 * Application performance is application-specific events per second
 * (inodes searched, packets copied, pages served, queries done,
 * file/mail operations completed).
 *
 * Paper reference (gmean over the 8 benchmarks): SelectiveOffload
 * +10.6%, FlexSC -75% (single-threaded collapse; +10.1% for the
 * multi-threaded benchmarks alone), DisAggregateOS +9.5%, SLICC
 * +11.4%, SchedTask +22.8%.
 */

std::vector<Sweep>
standardCross(const Window &w)
{
    return {benchmarkCross([&w](const std::string &bench) {
        return w.standard(bench);
    })};
}

void
fig07Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Figure 7: change in application performance (%) "
                "vs Linux baseline, 2X workload",
                out);
    std::fprintf(
        out, "%s\n",
        run.report().appPerfChange().renderWithGmean("benchmark").c_str());
    std::fprintf(out,
                 "Paper gmean reference: SelectiveOffload +10.6, "
                 "FlexSC -75 (single-threaded collapse), "
                 "DisAggregateOS +9.5, SLICC +11.4, SchedTask +22.8\n");
}

/*
 * The Figure 7 smoke shrinks every run (8 cores, one warmup + two
 * measured epochs, 1X scale) so the whole cross finishes in seconds.
 * The numbers are not the paper's, but the run exercises every
 * technique and benchmark; tools/check.sh uses it to compare the
 * checked preset against the default build bit for bit.
 */
std::vector<Sweep>
fig07FastSweeps(const Window &)
{
    return {benchmarkCross([](const std::string &bench) {
        return ExperimentConfig::standard(bench, 1.0)
            .withCores(8)
            .withEpochs(1, 2);
    })};
}

void
fig07FastRender(const FigureRun &run, std::FILE *out)
{
    printHeader("Figure 7 (fast smoke): change in application "
                "performance (%) vs Linux baseline, 1X workload",
                out);
    std::fprintf(
        out, "%s\n",
        run.report().appPerfChange().renderWithGmean("benchmark").c_str());
}

/*
 * Reproduces Figure 8(a-f): the microarchitectural impact of the
 * core-specialization techniques relative to the Linux baseline at
 * the 2X workload:
 *
 *   (a) change in instruction throughput (%)
 *   (b) fraction of idle time (%)        [absolute, per technique]
 *   (c) change in i-cache hit rate, application code (pp)
 *   (d) change in i-cache hit rate, OS code (pp)
 *   (e) change in d-cache hit rate, application code (pp)
 *   (f) change in d-cache hit rate, OS code (pp)
 *
 * Paper shapes: SchedTask best throughput (~+23% gmean) with ~0%
 * idle; SelectiveOffload ~50% idle and the best application i-cache
 * hit rate; FlexSC deeply negative on the single-threaded Find/
 * Iscp/Oscp; SLICC strong cache hit rates but ~5% idle.
 */

void
fig08Render(const FigureRun &run, std::FILE *out)
{
    const SweepReport report = run.report();
    const auto hits = [&report](double RunResult::*rate) {
        return report
            .matrix([rate](const RunResult &base, const RunResult &r) {
                return pointChange(base.*rate, r.*rate);
            })
            .render("benchmark");
    };
    const std::pair<const char *, std::string> panels[] = {
        {"Figure 8a: change in instruction throughput (%)",
         report.throughputChange().renderWithGmean("benchmark")},
        {"Figure 8b: fraction of idle time (%)",
         report.idlePercent().render("benchmark")},
        {"Figure 8c: change in i-cache hit rate, application (pp)",
         hits(&RunResult::iHitApp)},
        {"Figure 8d: change in i-cache hit rate, OS (pp)",
         hits(&RunResult::iHitOs)},
        {"Figure 8e: change in d-cache hit rate, application (pp)",
         hits(&RunResult::dHitApp)},
        {"Figure 8f: change in d-cache hit rate, OS (pp)",
         hits(&RunResult::dHitOs)},
    };
    for (const auto &[title, text] : panels) {
        printHeader(title, out);
        std::fprintf(out, "%s", text.c_str());
    }
}

/*
 * Reproduces Figure 9(a-c): the impact of SchedTask's work-stealing
 * strategy on instruction throughput (vs the Linux baseline), idle
 * time fraction, and the overall i-cache hit rate change.
 *
 * Strategies (Section 5.3 / 6.4):
 *   - Steal nothing          — idle cores stay idle (19% mean idle);
 *   - Steal same work only   — no extra i-cache pollution, small
 *                              idleness reduction;
 *   - Steal similar work also — the default: overlap-guided, takes
 *                              half the matching SuperFunctions;
 *                              reduces FileSrv idleness massively;
 *   - Steal from busiest     — type-agnostic alternative with
 *                              higher i-cache pollution and modest
 *                              gains (mean ~+10.8% in the paper).
 */

std::vector<Sweep>
fig09Sweeps(const Window &w)
{
    const std::vector<std::pair<StealPolicy, std::string>> policies = {
        {StealPolicy::None, "Steal nothing"},
        {StealPolicy::SameOnly, "Steal same only"},
        {StealPolicy::SameAndSimilar, "Steal similar also"},
        {StealPolicy::BusiestFirst, "Steal busiest"},
    };
    // One Linux baseline per benchmark, shared by all four policy
    // variants (the steal policy is invisible to the baseline).
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        for (const auto &[policy, name] : policies) {
            sweep.addComparison(
                bench, name,
                w.standard(bench).withSteal(policy),
                TechniqueSpec{"SchedTask"});
        }
    }
    return {sweep};
}

void
fig09Render(const FigureRun &run, std::FILE *out)
{
    const SweepReport report = run.report();
    printHeader("Figure 9a: change in instruction throughput (%) "
                "by stealing strategy",
                out);
    std::fprintf(
        out, "%s",
        report.throughputChange().renderWithGmean("benchmark").c_str());
    printHeader("Figure 9b: fraction of idle time (%)", out);
    std::fprintf(out, "%s",
                 report.idlePercent().render("benchmark").c_str());
    printHeader("Figure 9c: change in overall i-cache hit rate (pp)",
                out);
    const SeriesMatrix ihit =
        report.matrix([](const RunResult &base, const RunResult &r) {
            return pointChange(base.iHitAll, r.iHitAll);
        });
    std::fprintf(out, "%s", ihit.render("benchmark").c_str());
}

/*
 * Reproduces Figure 10: inter-core thread migrations per billion
 * retired instructions, for the baseline and the five techniques.
 *
 * Paper shapes: the Linux baseline migrates minimally (it balances
 * only on significant imbalance); the core-specialization
 * techniques migrate orders of magnitude more, SLICC the most
 * (hardware migration chasing i-cache content); migrations do not
 * hurt when instruction/data locality rises with them.
 */

void
fig10Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Figure 10: inter-core thread migrations per 1e9 "
                "instructions, 2X workload",
                out);
    const SeriesMatrix matrix = run.report().withBaselineColumn(
        "Baseline", [](const RunResult &r) {
            return r.migrationsPerBillionInsts();
        });
    std::fprintf(out, "%s\n", matrix.render("benchmark", 0).c_str());
}

/*
 * Reproduces Figure 11 and the Section 6.5 discussion: the quality
 * of the Bloom-filter overlap ranking versus the exact footprint
 * ranking, as a function of the Page-heatmap register width.
 *
 * For each benchmark we take the system-wide stats table of a
 * steady-state epoch under SchedTask, rank every superFuncType's
 * peers by (a) the Hamming weight of ANDed heatmaps and (b) the
 * exact common-page counts of the code pages touched that epoch,
 * and report Kendall's tau-b between the two rankings, averaged
 * over the types (SchedEpochReport::rankingTau).
 *
 * The second table reports the mean SchedTask performance benefit
 * per register width (paper: 128b +15.9%, 256b +19.4%, 512b +22.8%,
 * 1024b +22.6%, 2048b +22.7%, ideal ranking +25.0%).
 */

const std::vector<unsigned> widths = {128, 256, 512, 1024, 2048};

std::string
widthName(unsigned bits)
{
    return std::to_string(bits) + " bits";
}

// Benchmark x {widths, ideal}: the Linux baseline does not consult
// the heatmap, so each benchmark's baseline deduplicates to a single
// run shared by every column. Then the tau grid, benchmark x width:
// traced SchedTask runs with exact page tracking, whose one measured
// epoch reports the tau (a window fixed under --fast).
std::vector<Sweep>
fig11Sweeps(const Window &w)
{
    Sweep perf;
    Sweep tau;
    tau.deriveSeeds(false);
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        for (unsigned b : widths) {
            perf.addComparison(
                bench, widthName(b),
                w.standard(bench).withHeatmapBits(b),
                TechniqueSpec{"SchedTask"});
            ExperimentConfig cfg = w.standard(bench)
                                       .withHeatmapBits(b)
                                       .withEpochs(4, 1);
            cfg.machine.trackExactPages = true;
            cfg.machine.trace = true;
            tau.add(bench, widthName(b), cfg, TechniqueSpec{"SchedTask"});
        }
        // Ideal ranking: exact footprint overlap, no Bloom filter.
        perf.addComparison(
            bench, "ideal ranking",
            w.standard(bench).withExactOverlap(),
            TechniqueSpec{"SchedTask"});
    }
    return {perf, tau};
}

void
fig11Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Figure 11: Kendall rank correlation of the "
                "Bloom-filter overlap ranking vs the exact ranking",
                out);
    const auto &benchmarks = BenchmarkSuite::benchmarkNames();
    std::vector<std::string> cols;
    for (unsigned b : widths)
        cols.push_back(widthName(b));
    SeriesMatrix tau(benchmarks, cols);
    for (const std::string &bench : benchmarks) {
        for (const std::string &col : cols)
            tau.set(bench, col,
                    run.results[1]
                        .at(bench, col)
                        .metrics.epochSamples.back()
                        .sched.rankingTau);
    }
    std::fprintf(out, "%s\n", tau.render("benchmark", 2).c_str());

    printHeader("Section 6.5: mean SchedTask throughput benefit (%) "
                "per register width (gmean over benchmarks)",
                out);
    const SeriesMatrix gains = run.report().throughputChange();
    cols.push_back("ideal ranking");
    TextTable perf({"configuration", "gmean benefit (%)"});
    for (const std::string &col : cols)
        perf.addRow({col, TextTable::pct(geometricMeanPercent(
                              gains.column(col)))});
    std::fprintf(out, "%s\n", perf.render().c_str());
    std::fprintf(out, "Paper: 128b +15.9, 256b +19.4, 512b +22.8, "
                      "1024b +22.6, 2048b +22.7, ideal +25.0\n");
}

/*
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

const std::vector<double> scales = {1.0, 2.0, 4.0, 8.0};

std::vector<Sweep>
tab04Sweeps(const Window &w)
{
    std::vector<Sweep> sweeps;
    for (double scale : scales) {
        sweeps.push_back(benchmarkCross([&w, scale](const std::string &b) {
            return w.standard(b, scale);
        }));
    }
    return sweeps;
}

void
tab04Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Table 4: idle fraction (%) and throughput change "
                "(%) by workload scale",
                out);
    const auto &benchmarks = BenchmarkSuite::benchmarkNames();
    for (std::size_t s = 0; s < scales.size(); ++s) {
        std::vector<std::string> headers = {"technique"};
        for (const std::string &b : benchmarks)
            headers.push_back(b);
        headers.push_back("gmean");
        TextTable table(headers);

        const SweepReport report = run.report(s);
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
        std::fprintf(out, "\n-- workload %gX --\n%s", scales[s],
                     table.render().c_str());
    }
}

/*
 * Reproduces the "Other statistics" of Section 6.1 plus the TLB,
 * interrupt-latency and fairness results:
 *
 *  (1) SchedTask overheads — TAlloc is negligible (<0.01% of
 *      execution), TMigrate ~3.2%, comparable to the Linux
 *      scheduler's share in the baseline;
 *  (2) iTLB/dTLB hit-rate improvements (+0.98 pp / +0.65 pp);
 *  (3) mean interrupt dispatch latency (+0.53% for SchedTask);
 *  (4) Jain's fairness index of per-thread instruction throughput
 *      (0.99 for SchedTask, thanks to FCFS queues).
 */

std::vector<Sweep>
sec61Sweeps(const Window &w)
{
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames())
        sweep.addComparison(bench, "SchedTask",
                            w.standard(bench),
                            TechniqueSpec{"SchedTask"});
    return {sweep};
}

void
sec61Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Section 6.1 other statistics (2X workload, "
                "aggregated over the 8 benchmarks)",
                out);
    const SweepReport report = run.report();
    std::vector<double> overhead_frac, itlb_delta, dtlb_delta;
    std::vector<double> irq_latency_change, fairness;
    std::vector<double> irq_latency_base, irq_latency_st;

    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        const RunResult &base = report.baselineOf(bench);
        const RunResult &st = report.run(bench, "SchedTask");

        overhead_frac.push_back(
            100.0 * static_cast<double>(st.metrics.overheadInsts)
            / static_cast<double>(st.metrics.instsRetired));
        itlb_delta.push_back(pointChange(base.itlbHit, st.itlbHit));
        dtlb_delta.push_back(pointChange(base.dtlbHit, st.dtlbHit));
        irq_latency_change.push_back(
            percentChange(base.metrics.meanIrqLatency(),
                          st.metrics.meanIrqLatency()));
        irq_latency_base.push_back(base.metrics.meanIrqLatency());
        irq_latency_st.push_back(st.metrics.meanIrqLatency());

        // Fairness over threads' retired instructions.
        std::vector<double> per_thread;
        for (std::uint64_t v : st.metrics.perThreadInsts)
            per_thread.push_back(static_cast<double>(v));
        fairness.push_back(jainFairness(per_thread));
    }

    TextTable table({"statistic", "measured (mean)", "paper"});
    table.addRow({"scheduler routine share of insts (%)",
                  TextTable::num(arithmeticMean(overhead_frac), 2),
                  "~3.2"});
    table.addRow({"iTLB hit-rate change (pp)",
                  TextTable::pct(arithmeticMean(itlb_delta), 2),
                  "+0.98"});
    table.addRow({"dTLB hit-rate change (pp)",
                  TextTable::pct(arithmeticMean(dtlb_delta), 2),
                  "+0.65"});
    table.addRow({"mean interrupt latency change (%)",
                  TextTable::pct(arithmeticMean(irq_latency_change),
                                 2),
                  "+0.53"});
    table.addRow({"mean interrupt latency (cycles)",
                  TextTable::num(arithmeticMean(irq_latency_base), 0)
                      + " -> "
                      + TextTable::num(arithmeticMean(irq_latency_st),
                                       0),
                  "(absolute; small either way)"});
    table.addRow({"Jain fairness index",
                  TextTable::num(arithmeticMean(fairness), 3),
                  "0.99"});
    std::fprintf(out, "%s\n", table.render().c_str());
}

/*
 * Ablation of SchedTask's TAlloc design choices (the knobs
 * DESIGN.md calls out beyond the paper's own Figure 9/11 studies):
 *
 *  - epoch length: 0.4x / 1x / 2x the default (the paper's 3 ms);
 *  - interrupt routing: TAlloc programming the IRQ controller
 *    versus leaving interrupts round-robin;
 *  - demand smoothing: the EMA on per-type shares that damps
 *    allocation ping-pong (0 = react fully each epoch).
 *
 * Reported for the two most scheduler-sensitive benchmarks (Apache,
 * FileSrv) at 2X as throughput change vs the Linux baseline.
 */

const std::vector<std::string> ablationBenches = {"Apache", "FileSrv"};

/** A variant's name and how it derives from the standard config. */
using Variant =
    std::pair<std::string, ExperimentConfig (*)(ExperimentConfig)>;

const std::vector<Variant> &
ablationVariants()
{
    // The four variants that only touch SchedTask knobs share one
    // deduplicated Linux baseline per benchmark; the epoch variants
    // change the machine and get their own.
    static const std::vector<Variant> list = {
        {"default (250k-cycle epoch)",
         [](ExperimentConfig c) { return c; }},
        {"short epoch (100k)",
         [](ExperimentConfig c) { return c.withEpochCycles(100000); }},
        {"long epoch (500k)",
         [](ExperimentConfig c) {
             return c.withEpochCycles(500000).withEpochs(3, 4);
         }},
        {"no interrupt routing",
         [](ExperimentConfig c) { return c.withRouteInterrupts(false); }},
        {"no demand smoothing",
         [](ExperimentConfig c) {
             // React fully to each epoch's measurement.
             return c.withDemandSmoothing(1.0);
         }},
        {"steal busiest (type-blind)",
         [](ExperimentConfig c) {
             return c.withSteal(StealPolicy::BusiestFirst);
         }},
    };
    return list;
}

std::vector<Sweep>
ablationSweeps(const Window &w)
{
    Sweep sweep;
    for (const std::string &bench : ablationBenches) {
        for (const auto &[name, derive] : ablationVariants())
            sweep.addComparison(bench, name, derive(w.standard(bench)),
                                TechniqueSpec{"SchedTask"});
    }
    return {sweep};
}

void
ablationRender(const FigureRun &run, std::FILE *out)
{
    printHeader("TAlloc ablations: SchedTask throughput change (%) "
                "vs Linux",
                out);
    const SeriesMatrix gains = run.report().throughputChange();
    TextTable table({"variant", "Apache", "FileSrv"});
    for (const auto &[name, derive] : ablationVariants()) {
        std::vector<std::string> cells = {name};
        for (const std::string &bench : ablationBenches)
            cells.push_back(TextTable::pct(gains.get(bench, name)));
        table.addRow(std::move(cells));
    }
    std::fprintf(out, "%s\n", table.render().c_str());
    std::fprintf(out,
                 "Expected: the default dominates; short epochs "
                 "re-allocate on noise, no-routing leaks interrupt "
                 "pollution onto every core, type-blind stealing "
                 "(the paper's 'modest benefits' alternative) gives "
                 "up i-cache locality.\n");
}

/*
 * Reproduces the appendix's Figure 1 / Table 1: multi-programmed
 * workloads. Six bags (MPW-A..MPW-F) mix 2-4 benchmarks; the metric
 * is the change in the *weighted* instruction throughput, where
 * each constituent benchmark's throughput is normalized by its
 * share under the baseline.
 *
 * Paper reference (gmean over the bags): SelectiveOffload +21.5%,
 * FlexSC -2.3%, DisAggregateOS +9.5%, SLICC +5.6%, SchedTask
 * +23.9%. The headline: SLICC degrades on bags because its segment
 * maps do not share common OS execution across applications.
 */

/**
 * Weighted throughput change: geometric mean of the per-part
 * instruction-throughput ratios. The geometric mean keeps one
 * tenant's windfall (e.g. the few threads SelectiveOffload admits
 * to dedicated cores) from masking the starvation of the others.
 */
double
weightedChange(const RunResult &base, const RunResult &run)
{
    const auto &b = base.metrics.instsByPart;
    const auto &r = run.metrics.instsByPart;
    std::vector<double> percents;
    for (std::size_t i = 0; i < b.size() && i < r.size(); ++i) {
        if (b[i] == 0)
            continue;
        percents.push_back(percentChange(
            static_cast<double>(b[i]), static_cast<double>(r[i])));
    }
    return geometricMeanPercent(percents);
}

std::vector<Sweep>
appFig1Sweeps(const Window &w)
{
    return {Sweep::cross(Workload::bagNames(), comparedTechniques(),
                         [&w](const std::string &bag) {
                             return w.standardBag(bag);
                         })};
}

void
appFig1Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Figure 1: change in weighted instruction "
                "throughput (%) on multi-programmed bags",
                out);
    const SeriesMatrix matrix = run.report().matrix(weightedChange);
    std::fprintf(out, "%s\n", matrix.renderWithGmean("bag").c_str());
    std::fprintf(out,
                 "Paper gmean: SelectiveOffload +21.5, FlexSC -2.3, "
                 "DisAggregateOS +9.5, SLICC +5.6, SchedTask +23.9\n");
}

/*
 * Reproduces the appendix's Table 2: sensitivity to the i-cache
 * size (16 KB, 32 KB, 64 KB, all 4-way). Smaller i-caches thrash
 * more in the baseline, so core specialization helps more; the
 * paper measures SchedTask at +25/+23/+22% throughput for
 * 16/32/64 KB.
 */

const std::vector<unsigned> sizes_kb = {16, 32, 64};

std::vector<Sweep>
appTab2Sweeps(const Window &w)
{
    std::vector<Sweep> sweeps;
    for (unsigned kb : sizes_kb) {
        sweeps.push_back(benchmarkCross([&w, kb](const std::string &b) {
            return w.standard(b).withL1ISize(kb * 1024ull);
        }));
    }
    return sweeps;
}

void
appTab2Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Table 2: impact of the i-cache size on "
                "i-hit change (pp) and throughput change (%)",
                out);
    for (std::size_t s = 0; s < sizes_kb.size(); ++s) {
        const SweepReport report = run.report(s);
        const SeriesMatrix perf = report.throughputChange();
        const SeriesMatrix ihit =
            report.matrix([](const RunResult &base, const RunResult &r) {
                return pointChange(base.iHitAll, r.iHitAll);
            });
        const std::string table = techniqueTable(
            perf, [&](const std::string &bench, const std::string &t) {
                return TextTable::num(ihit.get(bench, t), 0) + "/"
                    + TextTable::pct(perf.get(bench, t), 0);
            });
        std::fprintf(out,
                     "\n-- %u KB i-cache (cells: iHit pp / perf %%) "
                     "--\n%s",
                     sizes_kb[s], table.c_str());
    }
    std::fprintf(out, "\nPaper: SchedTask +25/+23/+22%% gmean for "
                      "16/32/64 KB.\n");
}

/*
 * Reproduces the appendix's Table 3: sensitivity to the cache
 * configuration.
 *
 *   Config1 — 2-level: private 32 KB L1s + shared 8 MB L2 at 18
 *             cycles (highest miss penalty -> largest gains);
 *   Config2 — 2-level: shared 8 MB L2 at 8 cycles (lowest penalty
 *             -> smallest gains);
 *   Config3 — the paper's default 3-level hierarchy.
 *
 * Paper: SchedTask +24/+21/+23% gmean for Config1/2/3.
 */

std::vector<Sweep>
appTab3Sweeps(const Window &w)
{
    std::vector<Sweep> sweeps;
    for (const HierarchyParams &hier :
         {HierarchyParams::config1(), HierarchyParams::config2(),
          HierarchyParams::paperDefault()}) {
        sweeps.push_back(benchmarkCross([&w, &hier](const std::string &b) {
            return w.standard(b).withHierarchy(hier);
        }));
    }
    return sweeps;
}

void
appTab3Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Table 3: impact of the cache "
                "configuration on throughput change (%)",
                out);
    perfTables(run, {"Config1", "Config2", "Config3"}, out);
    std::fprintf(out,
                 "\nPaper: SchedTask +24/+21/+23%% gmean for "
                 "Config1/2/3; all techniques gain least on Config2 "
                 "(cheapest misses).\n");
}

/*
 * Reproduces the appendix's Table 4: sensitivity to the number of
 * cores (8, 16, 24, 32), at the 2X workload, throughput change
 * relative to the Linux baseline with the same core count.
 *
 * Paper: SchedTask +18/+27/+27/+23% gmean for 8/16/24/32 cores;
 * DisAggregateOS and SLICC struggle at low core counts (regions/
 * collectives cannot be cut finely enough).
 */

const std::vector<unsigned> core_counts = {8, 16, 24, 32};

std::vector<Sweep>
appTab4Sweeps(const Window &w)
{
    std::vector<Sweep> sweeps;
    for (unsigned cores : core_counts) {
        sweeps.push_back(benchmarkCross([&w, cores](const std::string &b) {
            return w.standard(b).withCores(cores);
        }));
    }
    return sweeps;
}

void
appTab4Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Table 4: impact of the core count on "
                "throughput change (%)",
                out);
    std::vector<std::string> labels;
    for (unsigned cores : core_counts)
        labels.push_back(std::to_string(cores) + " cores");
    perfTables(run, labels, out);
}

/*
 * Reproduces the appendix's Figure 2: the techniques evaluated on a
 * baseline equipped with a call-graph instruction prefetcher (CGP,
 * hardware-only mode). The prefetcher removes 20-30% of the
 * baseline's i-cache misses, so specialization has less left to
 * win: the paper's SchedTask gmean drops from +23% to +19.6%.
 */

// Per benchmark: a no-prefetch Linux reference (for the miss-
// savings line) plus the technique comparisons against the
// CGP-equipped Linux baseline.
std::vector<Sweep>
appFig2Sweeps(const Window &w)
{
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        const ExperimentConfig plain =
            w.standard(bench);
        sweep.addBaseline(bench, plain);
        for (const TechniqueSpec &t : comparedTechniques())
            sweep.addComparison(bench, t.name,
                                ExperimentConfig(plain).withCgpPrefetcher(),
                                t);
    }
    return {sweep};
}

void
appFig2Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Figure 2: throughput change (%) with a "
                "call-graph instruction prefetcher in the baseline",
                out);
    double base_misses = 0.0, cgp_misses = 0.0;
    for (const RunRequest &req : run.sweeps[0].requests()) {
        if (req.isBaseline) {
            const double misses =
                1.0 - run.results[0].at(req.label()).iHitAll;
            (req.config.useCgpPrefetcher ? cgp_misses : base_misses) +=
                misses;
        }
    }
    std::fprintf(
        out, "%s\n",
        run.report().throughputChange().renderWithGmean("benchmark").c_str());
    std::fprintf(out,
                 "CGP removed %.0f%% of the baseline's i-cache "
                 "misses (paper: 20-30%%).\n",
                 100.0 * (1.0 - cgp_misses / base_misses));
    std::fprintf(out,
                 "Paper gmean: SelectiveOffload +8.4, FlexSC -20.9, "
                 "DisAggregateOS +8.6, SLICC +4.3, SchedTask +19.6\n");
}

/*
 * Reproduces the appendix's Figure 3: the techniques evaluated on a
 * baseline equipped with a per-core trace cache (Krick et al.).
 * With the >250 KB footprints of these workloads, traces from
 * different SuperFunctions evict each other, so the trace cache
 * changes little and the specialization gains persist (paper:
 * SchedTask +20.6% gmean).
 */

std::vector<Sweep>
appFig3Sweeps(const Window &w)
{
    return {benchmarkCross([&w](const std::string &bench) {
        return w.standard(bench).withTraceCache();
    })};
}

void
appFig3Render(const FigureRun &run, std::FILE *out)
{
    printHeader("Appendix Figure 3: throughput change (%) with a "
                "trace cache in the baseline",
                out);
    std::fprintf(
        out, "%s\n",
        run.report().throughputChange().renderWithGmean("benchmark").c_str());
    std::fprintf(out,
                 "Paper gmean: SelectiveOffload +7.2, FlexSC -20.4, "
                 "DisAggregateOS +6.7, SLICC +8.0, SchedTask +20.6\n");
}

/** Every figure, in the order a full run renders them. */
const FigureSpec figures[] = {
    {"fig04_breakup", fig04Sweeps, fig04Render},
    {"sec44_epoch_similarity", sec44Sweeps, sec44Render},
    {"fig07_app_performance", standardCross, fig07Render},
    {"fig07_fast", fig07FastSweeps, fig07FastRender, false},
    {"fig08_microarch", standardCross, fig08Render},
    {"fig09_work_stealing", fig09Sweeps, fig09Render},
    {"fig10_migrations", standardCross, fig10Render},
    {"fig11_heatmap_size", fig11Sweeps, fig11Render},
    {"tab04_workload_scaling", tab04Sweeps, tab04Render},
    {"sec61_other_stats", sec61Sweeps, sec61Render},
    {"ablation_talloc", ablationSweeps, ablationRender},
    {"app_fig1_multiprogrammed", appFig1Sweeps, appFig1Render},
    {"app_tab2_icache_size", appTab2Sweeps, appTab2Render},
    {"app_tab3_cache_config", appTab3Sweeps, appTab3Render},
    {"app_tab4_core_count", appTab4Sweeps, appTab4Render},
    {"app_fig2_prefetcher", appFig2Sweeps, appFig2Render},
    {"app_fig3_trace_cache", appFig3Sweeps, appFig3Render},
};

int
usageError(const std::string &message)
{
    std::vector<std::string> names;
    for (const FigureSpec &f : figures)
        names.push_back(f.name);
    std::fprintf(stderr,
                 "schedtask-figures: %s\n"
                 "usage: schedtask-figures [--fast] [--out DIR] "
                 "[--trace-dir DIR] [name...]\nfigures: %s\n",
                 message.c_str(), joinNames(names).c_str());
    return 2;
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec)
        + static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec)
            * 1e-6;
}

} // namespace

int
main(int argc, char **argv)
{
    // lint:allow(DET-01) wall-clock is the reported time to paper
    const auto start = std::chrono::steady_clock::now();
    constexpr std::size_t count = std::size(figures);
    std::string out_dir, trace_dir;
    const ExperimentConfig defaults;
    Window window{defaults.warmupEpochs, defaults.measureEpochs};
    std::vector<bool> selected(count, false);
    bool named = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fast") {
            window = {1, 2};
        } else if (arg == "--out" || arg == "--trace-dir") {
            if (i + 1 == argc)
                return usageError(arg + " needs a directory");
            (arg == "--out" ? out_dir : trace_dir) = argv[++i];
        } else if (arg.starts_with("-")) {
            return usageError("unknown option: " + arg);
        } else {
            std::size_t f = 0;
            while (f < count && arg != figures[f].name)
                ++f;
            if (f == count)
                return usageError("unknown figure '" + arg + "'");
            selected[f] = named = true;
        }
    }
    for (std::size_t f = 0; f < count && !named; ++f)
        selected[f] = figures[f].inPaper;
    for (const std::string &dir : {out_dir, trace_dir}) {
        std::error_code ec;
        if (!dir.empty() && !std::filesystem::is_directory(dir)
            && !std::filesystem::create_directories(dir, ec))
            return usageError("cannot create " + dir + ": " + ec.message());
    }

    // Declare every selected figure's sweeps, then run their union.
    std::vector<std::vector<Sweep>> sweeps(count);
    std::vector<const Sweep *> all;
    for (std::size_t f = 0; f < count; ++f) {
        if (selected[f])
            sweeps[f] = figures[f].sweeps(window);
        for (const Sweep &sweep : sweeps[f])
            all.push_back(&sweep);
    }
    SweepOptions options;
    options.traceDir = trace_dir;
    std::size_t simulations = 0;
    options.onRunDone = [&simulations](const RunRequest &,
                                       const RunResult &) {
        ++simulations;
    };
    std::vector<SweepResults> results = SweepRunner(options).runAll(all);

    std::size_t next = 0, rendered = 0;
    for (std::size_t f = 0; f < count; ++f) {
        if (!selected[f])
            continue;
        FigureRun run{sweeps[f], {}};
        for (std::size_t s = 0; s < sweeps[f].size(); ++s)
            run.results.push_back(std::move(results[next++]));
        const std::string path = out_dir + "/" + figures[f].name + ".txt";
        std::FILE *out =
            out_dir.empty() ? stdout : std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "schedtask-figures: %s: %s\n",
                         path.c_str(), std::strerror(errno));
            return 1;
        }
        figures[f].render(run, out);
        if (out != stdout && std::fclose(out) != 0) {
            std::fprintf(stderr, "schedtask-figures: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        ++rendered;
    }
    std::fflush(stdout);

    const double wall = std::chrono::duration<double>(
        // lint:allow(DET-01) wall-clock is the reported time to paper
        std::chrono::steady_clock::now() - start).count();
    std::fprintf(stderr,
                 "time to paper: %zu figures, %zu simulations, "
                 "%.1f wall-s, %.1f CPU-s, %u jobs\n",
                 rendered, simulations, wall, cpuSeconds(), defaultJobs());
    return 0;
}
