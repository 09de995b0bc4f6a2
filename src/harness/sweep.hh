/**
 * @file
 * Declarative experiment sweeps and their multi-threaded runner.
 *
 * Every paper figure runs dozens of fully independent simulations
 * (benchmark x technique cross products, parameter sweeps). A Sweep
 * declares those runs up front; a SweepRunner executes them on a
 * thread pool and collects RunResults keyed by "row/col" label.
 *
 * Determinism: each run's master seed is derived from its row label
 * (mixed with the config's own seed), never from shared RNG state,
 * so results are bitwise identical for any job count and any
 * execution order. Requests in the same row share the derived seed,
 * which keeps the workload streams of a technique and its Linux
 * baseline identical — the property compare() always relied on.
 *
 * Cell dedup: requests with equal cellKey() run once, across all
 * sweeps handed to one SweepRunner::runAll() call, and each request's
 * label gets that run's result. The key is the config value itself
 * (plus the seed and technique), so a field added to a config splits
 * cells with no further edit.
 *
 * Baseline dedup: a comparison shares the Linux baseline of its row
 * whose cellKey() a baseline on its config would have; otherwise a
 * new one is declared as "<row>/baseline #<k>", k counting the row's
 * distinct baselines in declaration order.
 */

#ifndef SCHEDTASK_HARNESS_SWEEP_HH
#define SCHEDTASK_HARNESS_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"
#include "harness/reporting.hh"

namespace schedtask
{

/** One simulation the runner should execute. */
struct RunRequest
{
    /** Display row (usually the benchmark); also the seed label
     *  and the baseline-sharing group. */
    std::string row;

    /** Display column (usually the technique or variant name). */
    std::string col;

    ExperimentConfig config;

    /** Technique to run, by registered name. */
    TechniqueSpec spec;

    /** Mix the row label into the master seed (see runSeed()).
     *  The runOnce()/compare() wrappers disable this to preserve
     *  their historical "seed = config.machine.seed" behaviour. */
    bool deriveSeed = true;

    /** Label of the baseline run this request is compared against
     *  in SweepReport; empty for standalone runs and baselines. */
    std::string baselineLabel;

    /** True for the deduplicated Linux baseline runs themselves. */
    bool isBaseline = false;

    /** Result key: "row/col". */
    std::string label() const { return row + "/" + col; }
};

/** Stable FNV-1a hash used for label-derived seeds. */
std::uint64_t stableHash64(std::string_view text);

/** The effective master seed the runner gives a request. */
std::uint64_t runSeed(const RunRequest &request);

/** The simulation a request runs; see cellKey(). */
struct CellKey
{
    std::uint64_t seed = 0;
    std::string technique;
    ExperimentConfig config;

    auto operator<=>(const CellKey &) const = default;
};

/**
 * Identity of the simulation a request runs: requests with equal
 * keys produce bitwise-identical results, so the runner executes
 * each key once. The key is runSeed(), spec.name and the config with
 * what the run cannot observe cleared: machine.numCores (filled in
 * per technique) and, for the baseline technique, machine.heatmapBits
 * and schedTask. machine.trace stays in: a traced request needs the
 * telemetry an untraced twin's result lacks. The key is taken from
 * the request as declared, before SweepOptions::traceDir switches
 * tracing on.
 */
CellKey cellKey(const RunRequest &request);

/**
 * Worker-thread count: SCHEDTASK_JOBS if set (clamped to [1,256]),
 * otherwise the hardware concurrency.
 */
unsigned defaultJobs();

/** A declarative set of runs, with display row/column ordering. */
class Sweep
{
  public:
    /** Applies to requests added afterwards (default true). */
    Sweep &deriveSeeds(bool derive);

    /** Add a standalone run (no baseline attached). Fatal, before
     *  any run starts, when config.validate(spec) reports an error
     *  (an unregistered spec.name, an unbuildable machine, ...) or
     *  the sweep already has a run labelled "row/col". */
    Sweep &add(const std::string &row, const std::string &col,
               ExperimentConfig config, const TechniqueSpec &spec);

    /** Register the row's baseline (the registry technique flagged
     *  isBaseline) for `config`, idempotent per cellKey().
     *  addComparison() calls this implicitly. */
    Sweep &addBaseline(const std::string &row,
                       const ExperimentConfig &config);

    /** Add a run compared against the Linux baseline on the same
     *  configuration (registered and deduplicated automatically). */
    Sweep &addComparison(const std::string &row, const std::string &col,
                         ExperimentConfig config,
                         const TechniqueSpec &spec);

    /** Add a run compared against a baseline on a *different*
     *  configuration (e.g. a parameter sweep whose reference is the
     *  unmodified config). */
    Sweep &addVersus(const std::string &row, const std::string &col,
                     ExperimentConfig config, const TechniqueSpec &spec,
                     const ExperimentConfig &baseline_config);

    /**
     * The recurring figure layout: one row per benchmark, one
     * comparison column per technique (titled spec.name), all
     * against the per-row Linux baseline. `make` builds the row's
     * configuration.
     */
    static Sweep cross(
        const std::vector<std::string> &rows,
        const std::vector<TechniqueSpec> &techniques,
        const std::function<ExperimentConfig(const std::string &)>
            &make);

    const std::vector<RunRequest> &requests() const
    {
        return requests_;
    }

    /** Display rows/columns, in insertion order (no baselines). */
    const std::vector<std::string> &rows() const { return rows_; }
    const std::vector<std::string> &cols() const { return cols_; }

    std::size_t size() const { return requests_.size(); }

  private:
    void noteRowCol(const std::string &row, const std::string &col);

    /** Append a request; fatal when it cannot run or its label is
     *  taken. */
    void declare(RunRequest request);

    /** Label of the row's baseline on `config`, declared on first
     *  use. */
    std::string baselineFor(const std::string &row,
                            const ExperimentConfig &config);

    std::vector<RunRequest> requests_;
    std::vector<std::string> rows_;
    std::vector<std::string> cols_;
    bool deriveSeeds_ = true;
};

/** Thread-safe collected results, keyed by request label. */
class SweepResults
{
  public:
    bool has(const std::string &label) const;

    /** Result lookup; fatal on unknown labels. */
    const RunResult &at(const std::string &label) const;
    const RunResult &at(const std::string &row,
                        const std::string &col) const;

    std::size_t size() const { return results_.size(); }

  private:
    friend class SweepRunner;
    std::map<std::string, RunResult> results_;
};

/** Execution options for SweepRunner. */
struct SweepOptions
{
    /** Worker threads; 0 means defaultJobs(). */
    unsigned jobs = 0;

    /** Stream "[k/N] label done" progress lines to stderr. */
    bool progress = true;

    /**
     * Directory for per-run epoch traces. When non-empty, every
     * run executes with MachineParams.trace enabled and writes
     * "<dir>/<label>@<n>.trace.json" (Chrome trace) plus
     * "<dir>/<label>@<n>.jsonl": <label> from the cell's first
     * request (characters other than letters, digits and ".-_@"
     * become '_'), <n> 1 for the first distinct cell with that
     * <label>, 2 for the next, ..., so each distinct cell gets its
     * own pair. Empty means no tracing.
     * Tracing is pure observation — results stay bitwise identical.
     */
    std::string traceDir;

    /** Observation hook, called (under the runner's lock) after
     *  each distinct cell completes, with the cell's first request.
     *  Used by tests and progress consumers. */
    std::function<void(const RunRequest &, const RunResult &)>
        onRunDone;

    /** Observation hook, called on the worker thread right after a
     *  cell is claimed, before it executes, with the cell's first
     *  request. A throwing hook fails that run (tests use this to
     *  inject failures). */
    std::function<void(const RunRequest &)> onRunStart;
};

/** Executes a Sweep on a thread pool. */
class SweepRunner
{
  public:
    SweepRunner() = default;
    explicit SweepRunner(SweepOptions options)
        : options_(std::move(options))
    {
    }

    /** Run the sweep; fatal (listing every failed run label) when
     *  any run throws. */
    SweepResults run(const Sweep &sweep) const;

    /**
     * Run several sweeps as one: each distinct cell among all their
     * requests runs once, and element i of the result holds
     * sweeps[i]'s results, equal to what run(*sweeps[i]) returns.
     * Fatal like run(), or, given `failures`, non-fatal like
     * runPartial().
     */
    std::vector<SweepResults>
    runAll(const std::vector<const Sweep *> &sweeps,
           std::vector<std::string> *failures = nullptr) const;

    /**
     * Non-fatal variant: executes runs until the first failure is
     * observed (dispatch stops; runs already claimed by other
     * workers still finish), appending one "label: reason" entry
     * per failed run to `failures`. Returns whatever completed.
     */
    SweepResults runPartial(const Sweep &sweep,
                            std::vector<std::string> &failures) const;

  private:
    SweepOptions options_;
};

/**
 * Deterministic parallel-for over [0, count): each index runs
 * exactly once, on one of `jobs` threads (0 = defaultJobs()).
 * The callback must only write to index-private state.
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)> &fn,
                 unsigned jobs = 0);

/**
 * Fills SeriesMatrix views from a completed sweep: one row per
 * sweep row, one column per sweep column, values computed from the
 * run (and, for the comparison forms, its Linux baseline).
 */
class SweepReport
{
  public:
    SweepReport(const Sweep &sweep, const SweepResults &results)
        : sweep_(sweep), results_(results)
    {
    }

    using ChangeFn =
        std::function<double(const RunResult &base,
                             const RunResult &run)>;
    using ValueFn = std::function<double(const RunResult &run)>;

    /** Matrix of fn(baseline, run); fatal for baseline-less runs. */
    SeriesMatrix matrix(const ChangeFn &fn) const;

    /** Matrix of fn(run) — absolute values, no baseline needed. */
    SeriesMatrix matrixAbsolute(const ValueFn &fn) const;

    /** matrixAbsolute() plus a leading column holding fn(baseline)
     *  of each row's first baseline (the Figure 10 layout). */
    SeriesMatrix withBaselineColumn(const std::string &baseline_col,
                                    const ValueFn &fn) const;

    /** The three recurring figure matrices. */
    SeriesMatrix appPerfChange() const;
    SeriesMatrix throughputChange() const;
    SeriesMatrix idlePercent() const;

    /** Result of one display run. */
    const RunResult &run(const std::string &row,
                         const std::string &col) const;

    /** The row's first baseline ("<row>/baseline #1"); fatal if
     *  none. */
    const RunResult &baselineOf(const std::string &row) const;

  private:
    const Sweep &sweep_;
    const SweepResults &results_;
};

} // namespace schedtask

#endif // SCHEDTASK_HARNESS_SWEEP_HH
