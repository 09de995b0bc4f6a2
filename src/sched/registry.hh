/**
 * @file
 * Name-keyed scheduler registry.
 *
 * Techniques self-register under a canonical name with a factory
 * that builds a Scheduler from a SchedulerFactoryContext (the parsed
 * option blob plus the harness's SchedTaskParams ablation knobs).
 * A TechniqueSpec (name + options) is the only way to name a
 * technique: the CLI, the sweep runner and every figure resolve it
 * here, so adding a scheduler is one registration call — no harness
 * edit, no switch.
 *
 * Properties carried per entry:
 *  - isBaseline: the technique is the reference others are compared
 *    against (Linux).
 *  - paperOrder: position in the paper's figure columns (>= 0);
 *    entries outside the paper (hetero-schedtask, hts, user plugins)
 *    use -1 and never alter existing figure output.
 *
 * Registration is not thread-safe; register at startup, before any
 * sweep workers run. make()/find() are const and safe to call from
 * concurrent workers afterwards.
 */

#ifndef SCHEDTASK_SCHED_REGISTRY_HH
#define SCHEDTASK_SCHED_REGISTRY_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sched/options.hh"
#include "sched/scheduler.hh"

namespace schedtask
{

struct SchedTaskParams;

/** One documented option key of a registered technique. */
struct SchedulerOptionSpec
{
    std::string key;
    std::string help;
};

/** Everything a factory may consult when building a scheduler. */
struct SchedulerFactoryContext
{
    const SchedulerOptions &options;
    const SchedTaskParams &schedTask;
};

using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const SchedulerFactoryContext &)>;

/** A registered technique. */
struct SchedulerInfo
{
    std::string name;        ///< canonical display name
    std::string description; ///< one line for --list-techniques
    bool isBaseline = false; ///< comparisons normalise against this
    int paperOrder = -1;     ///< paper figure column order, -1 = none
    std::vector<SchedulerOptionSpec> options;
    SchedulerFactory factory;
};

/**
 * The process-wide registry. Lookup is case-insensitive; display
 * uses the canonical casing of the registered name.
 */
class SchedulerRegistry
{
  public:
    /** The singleton, with the built-in techniques registered. */
    static SchedulerRegistry &instance();

    /** Register a technique; panics on a duplicate name. */
    void registerScheduler(SchedulerInfo info);

    /** Entry for a name, or nullptr when unknown. */
    const SchedulerInfo *find(std::string_view name) const;

    /** Entry for a name; throws SchedulerOptionError listing the
     *  registered names when unknown. */
    const SchedulerInfo &resolve(std::string_view name) const;

    /** Canonical names, deterministically sorted. */
    std::vector<std::string> names() const;

    /** Paper-figure entries (paperOrder >= 0), in paper order. */
    std::vector<const SchedulerInfo *> paperEntries() const;

    /** Baseline flag of a name; false when unknown. */
    bool isBaseline(std::string_view name) const;

    /**
     * Reject options holding a key the technique does not declare
     * (universal keys excepted). Throws SchedulerOptionError.
     */
    void validateOptions(const SchedulerInfo &info,
                         const SchedulerOptions &options) const;

    /**
     * Build a scheduler: resolves the name, validates the option
     * keys, runs the factory, and applies universal options
     * (epoch_ms). Throws SchedulerOptionError on any failure.
     */
    std::unique_ptr<Scheduler> make(std::string_view name,
                                    const SchedulerOptions &options,
                                    const SchedTaskParams &sched_task) const;

    std::unique_ptr<Scheduler> make(const TechniqueSpec &spec,
                                    const SchedTaskParams &sched_task) const;

    /** Build with default SchedTaskParams (examples, tests). */
    std::unique_ptr<Scheduler> make(const TechniqueSpec &spec) const;

    /** Option keys every technique accepts (epoch_ms). */
    static const std::vector<SchedulerOptionSpec> &universalOptions();

  private:
    SchedulerRegistry() = default;

    void ensureBuiltins();
    static SchedulerRegistry &mutableInstance();

    /** Keyed by lower-cased name; std::map keeps listings sorted. */
    std::map<std::string, SchedulerInfo> entries_;
    /** True only after every built-in hook has completed; an acquire
     *  load makes the finished map visible to other threads, so
     *  post-registration lookups take no lock. */
    std::atomic<bool> builtins_ready_{false};
    /** Serializes the one-time registration; recursive because the
     *  built-in hooks re-enter through instance(). */
    std::recursive_mutex builtins_mutex_;
    bool builtins_registered_ = false;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_REGISTRY_HH
