#include "workload/workload.hh"

#include <atomic>
#include <cmath>

#include "common/logging.hh"

namespace schedtask
{

namespace
{

/** Monotonic counter keeping generated region names unique across
 *  multiple Workload::build calls against the same suite. */
std::atomic<std::uint64_t> buildCounter{0};

} // namespace

unsigned
Workload::partThreads(const BenchmarkProfile &profile, double scale,
                      unsigned num_cores)
{
    const unsigned at_1x = profile.singleThreadedPerCore()
        ? num_cores
        : profile.threadsAt1X;
    const double exact = scale * at_1x;
    // Compare in floating point first: lround of a huge product
    // does not fit in unsigned.
    if (!(exact < maxPartThreads + 0.5))
        return maxPartThreads + 1;
    return exact < 0.5 ? 0 : static_cast<unsigned>(std::lround(exact));
}

Workload
Workload::build(BenchmarkSuite &suite,
                const std::vector<WorkloadPart> &parts,
                unsigned num_cores)
{
    SCHEDTASK_ASSERT(!parts.empty(), "workload needs at least one part");
    const std::uint64_t build_id = buildCounter.fetch_add(1);

    Workload wl;
    wl.num_parts_ = static_cast<unsigned>(parts.size());
    std::uint64_t next_app_uid = 1;

    for (unsigned pi = 0; pi < parts.size(); ++pi) {
        const WorkloadPart &part = parts[pi];
        const BenchmarkProfile &profile = suite.byName(part.benchmark);
        const std::string prefix = "wl" + std::to_string(build_id) + "."
            + std::to_string(pi) + "." + part.benchmark;

        const unsigned thread_count =
            partThreads(profile, part.scale, num_cores);
        SCHEDTASK_ASSERT(thread_count > 0
                             && thread_count <= maxPartThreads,
                         "part ", part.benchmark, " at scale ",
                         part.scale, " needs 1..", maxPartThreads,
                         " threads");

        // Multi-threaded parts share one application data region;
        // each single-threaded process gets its own.
        Addr shared_base = 0;
        if (!profile.singleThreadedPerCore()
                && profile.sharedDataBytes > 0) {
            shared_base = suite.catalog()
                .regions()
                .allocate(prefix + ".shared", profile.sharedDataBytes)
                .base;
        }
        const std::uint64_t shared_app_uid =
            profile.singleThreadedPerCore() ? 0 : next_app_uid++;

        for (unsigned t = 0; t < thread_count; ++t) {
            ThreadSpec spec;
            spec.profile = &profile;
            spec.partIndex = pi;
            spec.indexInPart = t;
            spec.singleThreadedApp = profile.singleThreadedPerCore();
            spec.appUid = spec.singleThreadedApp
                ? next_app_uid++ : shared_app_uid;

            const std::string tname = prefix + ".t" + std::to_string(t);
            if (profile.privateDataBytes > 0) {
                spec.privateDataBase = suite.catalog()
                    .regions()
                    .allocate(tname + ".priv", profile.privateDataBytes)
                    .base;
                spec.privateDataBytes = profile.privateDataBytes;
            }
            if (spec.singleThreadedApp && profile.sharedDataBytes > 0) {
                spec.sharedDataBase = suite.catalog()
                    .regions()
                    .allocate(tname + ".shared", profile.sharedDataBytes)
                    .base;
                spec.sharedDataBytes = profile.sharedDataBytes;
            } else {
                spec.sharedDataBase = shared_base;
                spec.sharedDataBytes =
                    shared_base != 0 ? profile.sharedDataBytes : 0;
            }
            wl.threads_.push_back(spec);
        }

        // Ambient interrupt rates scale with the part's load.
        for (const AmbientIrqSpec &spec : profile.ambient) {
            AmbientIrqInstance inst;
            inst.spec = spec;
            inst.spec.meanPeriod = static_cast<Cycles>(
                std::max(1.0,
                         static_cast<double>(spec.meanPeriod)
                             / std::max(part.scale, 0.01)));
            inst.partIndex = pi;
            wl.ambient_.push_back(inst);
        }
    }
    return wl;
}

Workload
Workload::buildSingle(BenchmarkSuite &suite, const std::string &benchmark,
                      double scale, unsigned num_cores)
{
    return build(suite, {{benchmark, scale}}, num_cores);
}

const std::vector<std::string> &
Workload::bagNames()
{
    static const std::vector<std::string> names = {
        "MPW-A", "MPW-B", "MPW-C", "MPW-D", "MPW-E", "MPW-F",
    };
    return names;
}

std::vector<WorkloadPart>
Workload::bagParts(const std::string &name)
{
    // Appendix Table 1.
    if (name == "MPW-A")
        return {{"DSS", 1.0}, {"FileSrv", 1.0}};
    if (name == "MPW-B")
        return {{"Apache", 1.0}, {"OLTP", 1.0}};
    if (name == "MPW-C")
        return {{"Apache", 0.5}, {"DSS", 0.5}, {"FileSrv", 0.5},
                {"Iscp", 0.5}};
    if (name == "MPW-D")
        return {{"Apache", 0.5}, {"DSS", 0.5}, {"Find", 0.5},
                {"OLTP", 0.5}};
    if (name == "MPW-E")
        return {{"Find", 0.5}, {"FileSrv", 0.5}, {"Iscp", 0.5},
                {"Oscp", 0.5}};
    if (name == "MPW-F")
        return {{"Apache", 0.5}, {"FileSrv", 0.5}, {"MailSrvIO", 0.5},
                {"OLTP", 0.5}};
    SCHEDTASK_PANIC("unknown multi-programmed bag: ", name);
}

} // namespace schedtask
