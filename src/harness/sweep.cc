#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "common/parse_num.hh"
#include "harness/trace_export.hh"
#include "sched/registry.hh"

namespace schedtask
{

std::uint64_t
stableHash64(std::string_view text)
{
    // FNV-1a, 64-bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

/** SplitMix64 finalizer, for avalanche on combined hashes. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
runSeed(const RunRequest &request)
{
    if (!request.deriveSeed)
        return request.config.machine.seed;
    return mix64(request.config.machine.seed
                 ^ stableHash64(request.row));
}

CellKey
cellKey(const RunRequest &request)
{
    CellKey key{runSeed(request), request.spec.name, request.config};
    // What the run cannot observe: runWithScheduler sets numCores
    // from baselineCores, and a Linux run reads neither the heatmap
    // width nor any SchedTaskParams field.
    key.config.machine.numCores = 0;
    if (SchedulerRegistry::instance().isBaseline(request.spec.name)) {
        key.config.machine.heatmapBits = 0;
        key.config.schedTask = {};
    }
    return key;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SCHEDTASK_JOBS");
        env != nullptr && env[0] != '\0') {
        if (const auto n = parseUnsigned(env); n && *n >= 1)
            return static_cast<unsigned>(*n > 256 ? 256 : *n);
        warn("ignoring invalid SCHEDTASK_JOBS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Sweep &
Sweep::deriveSeeds(bool derive)
{
    deriveSeeds_ = derive;
    return *this;
}

void
Sweep::noteRowCol(const std::string &row, const std::string &col)
{
    if (std::find(rows_.begin(), rows_.end(), row) == rows_.end())
        rows_.push_back(row);
    if (std::find(cols_.begin(), cols_.end(), col) == cols_.end())
        cols_.push_back(col);
}

void
Sweep::declare(RunRequest request)
{
    // Catch a misspelt name, an unbuildable machine or a repeated
    // label while the sweep is declared, rather than as a failed run
    // (or an assertion inside a worker) after other runs have
    // finished, or as a result silently dropped under a taken label.
    const std::string label = request.label();
    std::optional<std::string> error =
        request.config.validate(request.spec);
    if (!error
        && std::any_of(requests_.begin(), requests_.end(),
                       [&](const RunRequest &r) {
                           return r.label() == label;
                       }))
        error = "the label is already declared";
    if (error)
        SCHEDTASK_FATAL("sweep run ", label, ": ", *error);
    requests_.push_back(std::move(request));
}

Sweep &
Sweep::add(const std::string &row, const std::string &col,
           ExperimentConfig config, const TechniqueSpec &spec)
{
    RunRequest req;
    req.row = row;
    req.col = col;
    req.config = std::move(config);
    req.spec = spec;
    req.deriveSeed = deriveSeeds_;
    declare(std::move(req));
    noteRowCol(row, col);
    return *this;
}

namespace
{

/** The registry technique flagged isBaseline (the Linux model). */
TechniqueSpec
baselineSpec()
{
    for (const SchedulerInfo *info :
         SchedulerRegistry::instance().paperEntries()) {
        if (info->isBaseline) {
            TechniqueSpec spec;
            spec.name = info->name;
            return spec;
        }
    }
    SCHEDTASK_FATAL("no registered technique is flagged isBaseline");
}

} // namespace

std::string
Sweep::baselineFor(const std::string &row,
                   const ExperimentConfig &config)
{
    RunRequest req;
    req.row = row;
    req.config = config;
    req.spec = baselineSpec();
    req.deriveSeed = deriveSeeds_;
    req.isBaseline = true;
    const CellKey key = cellKey(req);
    unsigned declared = 0;
    for (const RunRequest &other : requests_) {
        if (!other.isBaseline || other.row != row)
            continue;
        if (cellKey(other) == key)
            return other.label();
        ++declared;
    }
    req.col = "baseline #" + std::to_string(declared + 1);
    declare(std::move(req));
    return requests_.back().label();
}

Sweep &
Sweep::addBaseline(const std::string &row,
                   const ExperimentConfig &config)
{
    baselineFor(row, config);
    return *this;
}

Sweep &
Sweep::addComparison(const std::string &row, const std::string &col,
                     ExperimentConfig config, const TechniqueSpec &spec)
{
    const ExperimentConfig baseline_config = config;
    return addVersus(row, col, std::move(config), spec,
                     baseline_config);
}

Sweep &
Sweep::addVersus(const std::string &row, const std::string &col,
                 ExperimentConfig config, const TechniqueSpec &spec,
                 const ExperimentConfig &baseline_config)
{
    std::string baseline = baselineFor(row, baseline_config);
    add(row, col, std::move(config), spec);
    requests_.back().baselineLabel = std::move(baseline);
    return *this;
}

Sweep
Sweep::cross(const std::vector<std::string> &rows,
             const std::vector<TechniqueSpec> &techniques,
             const std::function<ExperimentConfig(const std::string &)>
                 &make)
{
    Sweep sweep;
    for (const std::string &row : rows) {
        const ExperimentConfig cfg = make(row);
        for (const TechniqueSpec &spec : techniques)
            sweep.addComparison(row, spec.name, cfg, spec);
    }
    return sweep;
}

bool
SweepResults::has(const std::string &label) const
{
    return results_.count(label) != 0;
}

const RunResult &
SweepResults::at(const std::string &label) const
{
    auto it = results_.find(label);
    if (it == results_.end())
        SCHEDTASK_FATAL("no sweep result labelled '" + label + "'");
    return it->second;
}

const RunResult &
SweepResults::at(const std::string &row, const std::string &col) const
{
    return at(row + "/" + col);
}

namespace
{

/** Run labels contain '/'; flatten to a safe file-name stem. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '.' || c == '-'
            || c == '_' || c == '@';
        if (!ok)
            c = '_';
    }
    return out;
}

void
writeRunTraces(const std::string &stem, const RunResult &result)
{
    writeTextFile(stem + ".trace.json",
                  chromeTraceJson(result.metrics.epochSamples,
                                  result.metrics.sfEvents,
                                  result.freqGhz));
    writeTextFile(stem + ".jsonl",
                  epochTraceJsonl(result.metrics.epochSamples));
}

} // namespace

std::vector<SweepResults>
SweepRunner::runAll(const std::vector<const Sweep *> &sweeps,
                    std::vector<std::string> *partial) const
{
    std::vector<std::string> fatal;
    std::vector<std::string> &failures = partial ? *partial : fatal;

    // The distinct cells, in first-seen order, and each one's
    // trace-file stem: its first request's label, numbered among the
    // cells whose label flattens the same way.
    std::map<CellKey, std::size_t> index;
    std::vector<const RunRequest *> cells;
    std::vector<std::string> stems;
    std::map<std::string, unsigned> stem_uses;
    for (const Sweep *sweep : sweeps) {
        for (const RunRequest &req : sweep->requests()) {
            if (!index.emplace(cellKey(req), cells.size()).second)
                continue;
            cells.push_back(&req);
            const std::string stem = sanitizeLabel(req.label());
            stems.push_back(stem + "@"
                            + std::to_string(++stem_uses[stem]));
        }
    }

    // A failed run, or a trace directory that cannot be made, stops
    // the dispatch of cells not yet started.
    std::atomic<bool> failed{false};
    const std::string &trace_dir = options_.traceDir;
    if (!trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        if (ec) {
            failures.push_back("trace dir '" + trace_dir
                               + "': " + ec.message());
            failed = true;
        }
    }

    // Each worker writes only the slots of the cells it claims.
    std::vector<std::optional<RunResult>> done_cells(cells.size());
    std::size_t done = 0;
    std::mutex mutex; // progress counter, failures, hooks
    // lint:allow(DET-01) wall-clock is progress logging only
    const auto start = std::chrono::steady_clock::now();

    parallelFor(cells.size(), [&](std::size_t i) {
        // Runs already underway on other workers still finish.
        if (failed.load(std::memory_order_acquire))
            return;
        const RunRequest &req = *cells[i];
        try {
            if (options_.onRunStart)
                options_.onRunStart(req);
            ExperimentConfig cfg = req.config;
            cfg.machine.seed = runSeed(req);
            if (!trace_dir.empty())
                cfg.machine.trace = true;
            const std::unique_ptr<Scheduler> scheduler =
                SchedulerRegistry::instance().make(req.spec,
                                                   cfg.schedTask);
            const RunResult &result = done_cells[i].emplace(
                runWithScheduler(cfg, *scheduler));
            if (!trace_dir.empty())
                writeRunTraces(trace_dir + "/" + stems[i], result);

            std::lock_guard<std::mutex> lock(mutex);
            ++done;
            if (options_.progress) {
                const double secs =
                    std::chrono::duration<double>(
                        // lint:allow(DET-01) progress display only
                        std::chrono::steady_clock::now() - start)
                        .count();
                std::fprintf(stderr, "[sweep %zu/%zu] %s done (%.1fs)\n",
                             done, cells.size(), req.label().c_str(),
                             secs);
            }
            if (options_.onRunDone)
                options_.onRunDone(req, result);
        } catch (const std::exception &e) {
            done_cells[i].reset();
            std::lock_guard<std::mutex> lock(mutex);
            failures.push_back(req.label() + ": " + e.what());
            failed.store(true, std::memory_order_release);
        }
    }, options_.jobs);

    if (!fatal.empty()) {
        std::string msg = "sweep run failed ("
            + std::to_string(fatal.size()) + " failure"
            + (fatal.size() == 1 ? "" : "s") + "): ";
        for (std::size_t i = 0; i < fatal.size(); ++i) {
            if (i != 0)
                msg += "; ";
            msg += fatal[i];
        }
        SCHEDTASK_FATAL(msg);
    }
    std::vector<SweepResults> results(sweeps.size());
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        for (const RunRequest &req : sweeps[s]->requests()) {
            if (const std::optional<RunResult> &result =
                    done_cells[index.at(cellKey(req))])
                results[s].results_.emplace(req.label(), *result);
        }
    }
    return results;
}

SweepResults
SweepRunner::runPartial(const Sweep &sweep,
                        std::vector<std::string> &failures) const
{
    return std::move(runAll({&sweep}, &failures).front());
}

SweepResults
SweepRunner::run(const Sweep &sweep) const
{
    return std::move(runAll({&sweep}).front());
}

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &fn, unsigned jobs)
{
    if (count == 0)
        return;
    unsigned workers = jobs == 0 ? defaultJobs() : jobs;
    if (workers > count)
        workers = static_cast<unsigned>(count);

    std::atomic<std::size_t> next{0};
    auto body = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            fn(i);
        }
    };
    if (workers <= 1) {
        body();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
}

SeriesMatrix
SweepReport::matrix(const ChangeFn &fn) const
{
    SeriesMatrix m(sweep_.rows(), sweep_.cols());
    for (const RunRequest &req : sweep_.requests()) {
        if (req.isBaseline)
            continue;
        if (req.baselineLabel.empty()) {
            SCHEDTASK_FATAL("sweep run '" + req.label()
                            + "' has no baseline to compare against");
        }
        if (!results_.has(req.baselineLabel)) {
            SCHEDTASK_FATAL("sweep report: missing baseline result '"
                            + req.baselineLabel + "' for run '"
                            + req.label() + "'");
        }
        if (!results_.has(req.label())) {
            SCHEDTASK_FATAL("sweep report: missing run result '"
                            + req.label() + "'");
        }
        m.set(req.row, req.col,
              fn(results_.at(req.baselineLabel),
                 results_.at(req.label())));
    }
    return m;
}

SeriesMatrix
SweepReport::matrixAbsolute(const ValueFn &fn) const
{
    SeriesMatrix m(sweep_.rows(), sweep_.cols());
    for (const RunRequest &req : sweep_.requests()) {
        if (req.isBaseline)
            continue;
        if (!results_.has(req.label())) {
            SCHEDTASK_FATAL("sweep report: missing run result '"
                            + req.label() + "'");
        }
        m.set(req.row, req.col, fn(results_.at(req.label())));
    }
    return m;
}

SeriesMatrix
SweepReport::withBaselineColumn(const std::string &baseline_col,
                                const ValueFn &fn) const
{
    std::vector<std::string> cols;
    cols.push_back(baseline_col);
    for (const std::string &col : sweep_.cols())
        cols.push_back(col);

    SeriesMatrix m(sweep_.rows(), cols);
    for (const std::string &row : sweep_.rows())
        m.set(row, baseline_col, fn(baselineOf(row)));
    for (const RunRequest &req : sweep_.requests()) {
        if (req.isBaseline)
            continue;
        if (!results_.has(req.label())) {
            SCHEDTASK_FATAL("sweep report: missing run result '"
                            + req.label() + "'");
        }
        m.set(req.row, req.col, fn(results_.at(req.label())));
    }
    return m;
}

SeriesMatrix
SweepReport::appPerfChange() const
{
    return matrix([](const RunResult &base, const RunResult &run) {
        return percentChange(base.appPerformance(),
                             run.appPerformance());
    });
}

SeriesMatrix
SweepReport::throughputChange() const
{
    return matrix([](const RunResult &base, const RunResult &run) {
        return percentChange(base.instThroughput(),
                             run.instThroughput());
    });
}

SeriesMatrix
SweepReport::idlePercent() const
{
    return matrixAbsolute(
        [](const RunResult &run) { return run.idlePercent(); });
}

const RunResult &
SweepReport::run(const std::string &row, const std::string &col) const
{
    return results_.at(row, col);
}

const RunResult &
SweepReport::baselineOf(const std::string &row) const
{
    for (const RunRequest &req : sweep_.requests()) {
        if (req.isBaseline && req.row == row)
            return results_.at(req.label());
    }
    SCHEDTASK_FATAL("sweep row '" + row + "' has no baseline");
}

} // namespace schedtask
