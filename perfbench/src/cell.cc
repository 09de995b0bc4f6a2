#include "cell.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sched/registry.hh"

namespace perfbench
{

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace
{

/** One thread's share of the host-speed probe. */
double
chaseOnce()
{
    constexpr std::size_t words = std::size_t{1} << 21; // 8 MiB
    constexpr std::size_t steps = 4'000'000;
    // Sattolo's shuffle: one cycle through every word, so the chase
    // never settles into a short, cache-resident loop.
    std::vector<std::uint32_t> next(words);
    for (std::size_t i = 0; i < words; ++i)
        next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = words - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    const double start = threadCpuSeconds();
    std::uint32_t p = 0;
    for (std::size_t s = 0; s < steps; ++s)
        p = next[p];
    const double seconds = threadCpuSeconds() - start;
    static std::atomic<std::uint32_t> sink{0};
    sink.fetch_xor(p, std::memory_order_relaxed);
    return seconds;
}

/** Mean per-thread chaseOnce() time over `jobs` concurrent threads. */
double
chaseOnThreads(unsigned jobs)
{
    std::vector<double> seconds(jobs);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back([&seconds, t] { seconds[t] = chaseOnce(); });
    for (std::thread &t : threads)
        t.join();
    double sum = 0.0;
    for (double s : seconds)
        sum += s;
    return sum / jobs;
}

} // namespace

double
hostChaseSeconds(unsigned jobs)
{
    // The probe runs in a child process, so its buffers never count
    // toward this process's peak RSS (a reported metric). Callers
    // hold no other threads at this point.
    int fds[2];
    if (pipe(fds) != 0)
        return chaseOnThreads(jobs);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return chaseOnThreads(jobs);
    }
    if (pid == 0) {
        close(fds[0]);
        const double seconds = chaseOnThreads(jobs);
        const bool ok =
            write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double seconds = 0.0;
    const bool got = read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("host-speed probe process failed");
    return seconds;
}

MemCounts &
MemCounts::operator+=(const MemCounts &o)
{
    l1iAccesses += o.l1iAccesses;
    l1iHits += o.l1iHits;
    l1dAccesses += o.l1dAccesses;
    l1dHits += o.l1dHits;
    l2Accesses += o.l2Accesses;
    l2Hits += o.l2Hits;
    itlbAccesses += o.itlbAccesses;
    itlbHits += o.itlbHits;
    dtlbAccesses += o.dtlbAccesses;
    dtlbHits += o.dtlbHits;
    coherenceInvals += o.coherenceInvals;
    remoteFills += o.remoteFills;
    fetchStallCycles += o.fetchStallCycles;
    dataStallCycles += o.dataStallCycles;
    prefetches += o.prefetches;
    return *this;
}

namespace
{

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(const std::vector<std::uint64_t> &vs)
    {
        add(static_cast<std::uint64_t>(vs.size()));
        for (std::uint64_t v : vs)
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addResult(Digest &d, const RunResult &r)
{
    const SimMetrics &m = r.metrics;
    d.add(m.cycles);
    d.add(m.instsRetired);
    for (std::uint64_t v : m.instsByCategory)
        d.add(v);
    d.add(m.overheadInsts);
    d.add(m.appEvents);
    d.add(m.appEventsByPart);
    d.add(m.instsByPart);
    d.add(m.idleCycles);
    d.add(m.perCoreIdleCycles);
    d.add(m.migrations);
    d.add(m.irqCount);
    d.add(m.irqLatencySum);
    d.add(m.perThreadInsts);
    d.add(static_cast<std::uint64_t>(r.numCores));
    d.add(static_cast<std::uint64_t>(r.numThreads));
    d.add(r.iHitApp);
    d.add(r.iHitOs);
    d.add(r.iHitAll);
    d.add(r.dHitApp);
    d.add(r.dHitOs);
    d.add(r.itlbHit);
    d.add(r.dtlbHit);
}

MemCounts
readMemCounts(const Machine &machine)
{
    const MemHierarchy &h = machine.hierarchy();
    MemCounts c;
    const AccessCounts i = h.iCountsTotal();
    const AccessCounts d = h.dCountsTotal();
    c.l1iAccesses = i.accesses;
    c.l1iHits = i.hits;
    c.l1dAccesses = d.accesses;
    c.l1dHits = d.hits;
    c.l2Accesses = h.l2Counts().accesses;
    c.l2Hits = h.l2Counts().hits;
    for (CoreId core = 0; core < machine.numCores(); ++core) {
        c.itlbAccesses += h.itlb(core).accesses();
        c.itlbHits += h.itlb(core).hits();
        c.dtlbAccesses += h.dtlb(core).accesses();
        c.dtlbHits += h.dtlb(core).hits();
    }
    c.coherenceInvals = h.coherenceInvalidations();
    c.remoteFills = h.remoteDirtyFills();
    c.fetchStallCycles = h.fetchStallCycles();
    c.dataStallCycles = h.dataStallCycles();
    if (h.prefetcher() != nullptr)
        c.prefetches = h.prefetcher()->issued();
    return c;
}

/** runWithScheduler(), step by step, with spans between the steps. */
void
execute(const ExperimentConfig &config, Scheduler &scheduler,
        TimedScheduler *timed, CellResult &out)
{
    const double wall0 = wallSeconds();
    const double cpu0 = threadCpuSeconds();

    BenchmarkSuite suite;
    Workload workload =
        Workload::build(suite, config.parts, config.baselineCores);
    const double wall1 = wallSeconds();

    MachineParams mp = config.machine;
    mp.numCores = scheduler.coresRequired(config.baselineCores);
    scheduler.configureMachine(mp);
    Machine machine(mp, config.hierarchy, suite, workload, scheduler);
    if (config.useCgpPrefetcher) {
        machine.hierarchy().setPrefetcher(
            std::make_unique<CallGraphPrefetcher>(mp.numCores));
    }
    if (config.useTraceCache)
        machine.hierarchy().enableTraceCaches(TraceCacheParams{});
    const double wall2 = wallSeconds();

    machine.run(static_cast<Cycles>(config.warmupEpochs)
                * mp.epochCycles);
    const double wall3 = wallSeconds();
    const double cpu3 = threadCpuSeconds();

    machine.resetStats();
    if (timed != nullptr)
        timed->startWindow();
    machine.run(static_cast<Cycles>(config.measureEpochs)
                * mp.epochCycles);
    const double wall4 = wallSeconds();
    const double cpu4 = threadCpuSeconds();

    RunResult &result = out.run;
    result.metrics = machine.metricsSnapshot();
    result.numCores = mp.numCores;
    result.numThreads = static_cast<unsigned>(machine.threads().size());
    result.freqGhz = mp.coreFrequencyGHz;
    const MemHierarchy &hier = machine.hierarchy();
    result.iHitApp = hier.iCounts(ExecClass::App).hitRate();
    result.iHitOs = hier.iCounts(ExecClass::Os).hitRate();
    result.iHitAll = hier.iCountsTotal().hitRate();
    result.dHitApp = hier.dCounts(ExecClass::App).hitRate();
    result.dHitOs = hier.dCounts(ExecClass::Os).hitRate();
    result.itlbHit = hier.itlbHitRate();
    result.dtlbHit = hier.dtlbHitRate();
    out.mem = readMemCounts(machine);

    out.times.buildS = wall1 - wall0;
    out.times.constructS = wall2 - wall1;
    out.times.warmupS = wall3 - wall2;
    out.times.measureS = wall4 - wall3;
    out.times.setupCpuS = cpu3 - cpu0;
    out.times.measureCpuS = cpu4 - cpu3;
}

} // namespace

std::uint64_t
resultDigest(const RunResult &result)
{
    Digest d;
    addResult(d, result);
    return d.value();
}

std::uint64_t
cellDigest(const RunResult &result, const MemCounts &mem)
{
    Digest d;
    addResult(d, result);
    for (std::uint64_t v :
         {mem.l1iAccesses, mem.l1iHits, mem.l1dAccesses, mem.l1dHits,
          mem.l2Accesses, mem.l2Hits, mem.itlbAccesses, mem.itlbHits,
          mem.dtlbAccesses, mem.dtlbHits, mem.coherenceInvals,
          mem.remoteFills, mem.fetchStallCycles, mem.dataStallCycles,
          mem.prefetches})
        d.add(v);
    return d.value();
}

CellResult
runCell(const RunRequest &request, CellMode mode)
{
    CellResult out;
    const double wall0 = wallSeconds();
    try {
        // The sweep runner's per-request preamble.
        ExperimentConfig config = request.config;
        config.machine.seed = runSeed(request);
        config.machine.trace = mode.epochTrace;
        const std::unique_ptr<Scheduler> scheduler =
            SchedulerRegistry::instance().make(request.spec,
                                               config.schedTask);
        out.schedTask =
            dynamic_cast<const SchedTaskScheduler *>(scheduler.get())
            != nullptr;

        if (mode.timeHooks) {
            TimedScheduler timed(*scheduler);
            execute(config, timed, &timed, out);
            out.hooks = timed.totals();
            out.core = timed.coreCounters();
        } else {
            execute(config, *scheduler, nullptr, out);
        }
        out.digest = cellDigest(out.run, out.mem);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.times.runS = wallSeconds() - wall0;
    return out;
}

} // namespace perfbench
