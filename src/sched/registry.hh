/**
 * @file
 * Name-keyed scheduler registry.
 *
 * Techniques register under a canonical name with a factory that
 * builds a Scheduler from the harness's SchedTaskParams (the
 * ExperimentConfig::schedTask variant knobs). A TechniqueSpec (a
 * registered name) is the only way to name a technique: the CLI, the
 * sweep runner and every figure resolve it here, so adding a
 * scheduler is one registration call — no harness edit, no switch.
 * Every run variant is an ExperimentConfig field; a technique has no
 * options of its own.
 *
 * Properties carried per entry:
 *  - isBaseline: the technique is the reference others are compared
 *    against (Linux).
 *  - paperOrder: position in the paper's figure columns (>= 0);
 *    entries outside the paper (user plugins) use -1 and never alter
 *    existing figure output.
 *
 * Registration is not thread-safe; register at startup, before any
 * sweep workers run. make()/find() are const and safe to call from
 * concurrent workers afterwards.
 */

#ifndef SCHEDTASK_SCHED_REGISTRY_HH
#define SCHEDTASK_SCHED_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hh"

namespace schedtask
{

struct SchedTaskParams;

/**
 * A technique selection: a registry name. This is the currency the
 * harness passes around: TechniqueSpec{"Linux"}.
 */
struct TechniqueSpec
{
    std::string name = "SchedTask";
};

using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const SchedTaskParams &)>;

/** A registered technique. */
struct SchedulerInfo
{
    std::string name;        ///< canonical display name
    std::string description; ///< one line for --list-techniques
    bool isBaseline = false; ///< comparisons normalise against this
    int paperOrder = -1;     ///< paper figure column order, -1 = none
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

    /** Entry for a name; throws TechniqueError listing the
     *  registered names when unknown. */
    const SchedulerInfo &resolve(std::string_view name) const;

    /** Canonical names, deterministically sorted. */
    std::vector<std::string> names() const;

    /** Paper-figure entries (paperOrder >= 0), in paper order. */
    std::vector<const SchedulerInfo *> paperEntries() const;

    /** Baseline flag of a name; false when unknown. */
    bool isBaseline(std::string_view name) const;

    /** Build a scheduler: resolves the name and runs the factory.
     *  Throws TechniqueError for an unregistered name. */
    std::unique_ptr<Scheduler> make(const TechniqueSpec &spec,
                                    const SchedTaskParams &sched_task) const;

  private:
    /** Registers the built-in techniques. */
    SchedulerRegistry();

    /** Keyed by lower-cased name; std::map keeps listings sorted. */
    std::map<std::string, SchedulerInfo> entries_;
};

} // namespace schedtask

#endif // SCHEDTASK_SCHED_REGISTRY_HH
