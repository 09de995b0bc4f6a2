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
 * Baseline dedup: comparisons against the Linux baseline register
 * the baseline by a fingerprint of the baseline-relevant parts of
 * their config (workload, hierarchy, machine, windows — everything
 * a LinuxScheduler run can observe; SchedTask-only knobs and the
 * heatmap width are excluded). Within a row, all requests whose
 * fingerprints match share one Linux run.
 *
 * Cell dedup: requests with the same cellKey() run once, across all
 * sweeps handed to one SweepRunner::runAll() call, and each request's
 * label gets that run's result.
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

    /** Technique to run, as a registry spec (name + options). */
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

/**
 * Fingerprint of the baseline-relevant configuration: everything a
 * Linux run's result can depend on. Excludes config.schedTask and
 * machine.heatmapBits (the heatmap registers are passive trackers;
 * only TAlloc consumes them).
 */
std::uint64_t baselineFingerprint(const ExperimentConfig &config);

/** Result-set key of the deduplicated baseline run for a config. */
std::string baselineLabelFor(const std::string &row,
                             const ExperimentConfig &config);

/** The effective master seed the runner gives a request. */
std::uint64_t runSeed(const RunRequest &request);

/**
 * Identity of the simulation a request runs: requests with equal
 * keys produce bitwise-identical results, so the runner executes
 * each key once. A baseline-technique (Linux) request is keyed by
 * runSeed(), spec.str(), baselineFingerprint() and machine.trace
 * (a traced request needs the telemetry an untraced twin's result
 * lacks); any other technique also by machine.heatmapBits and every
 * SchedTaskParams field. The key is taken from the request as
 * declared, before SweepOptions::traceDir switches tracing on.
 */
std::uint64_t cellKey(const RunRequest &request);

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
     *  (an unregistered spec.name, an unbuildable machine, ...). */
    Sweep &add(const std::string &row, const std::string &col,
               ExperimentConfig config, const TechniqueSpec &spec);

    /** Register the row's baseline (the registry technique flagged
     *  isBaseline) for `config`, idempotent per fingerprint.
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
     * comparison column per technique (titled spec.str()), all
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

    /** First-registered baseline label of a row ("" if none). */
    std::string firstBaselineLabel(const std::string &row) const;

    std::size_t size() const { return requests_.size(); }

  private:
    void noteRowCol(const std::string &row, const std::string &col);

    std::vector<RunRequest> requests_;
    std::vector<std::string> rows_;
    std::vector<std::string> cols_;
    std::map<std::string, std::size_t> baselineIndex_; // label -> req
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
     * "<dir>/<label>@<key>.trace.json" (Chrome trace) plus
     * "<dir>/<label>@<key>.jsonl": <label> from the cell's first
     * request ('/' becomes '_'), <key> its cellKey() in hex, so each
     * distinct cell gets its own pair. Empty means no tracing.
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

    /** First-registered baseline result of a row; fatal if none. */
    const RunResult &baselineOf(const std::string &row) const;

  private:
    const Sweep &sweep_;
    const SweepResults &results_;
};

} // namespace schedtask

#endif // SCHEDTASK_HARNESS_SWEEP_HH
