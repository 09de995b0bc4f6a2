#include "sched/registry.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "core/schedtask_sched.hh"

namespace schedtask
{

// Built-in registration hooks, defined next to each technique. Called
// explicitly from ensureBuiltins() rather than via static registrar
// objects so that linking the library statically cannot dead-strip a
// technique.
void registerLinuxTechnique();
void registerSelectiveOffloadTechnique();
void registerFlexScTechnique();
void registerDisAggregateOsTechnique();
void registerSliccTechnique();
void registerSchedTaskTechnique();

namespace
{

std::string
lowered(std::string_view name)
{
    std::string key(name);
    std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return key;
}

// The paper runs 3 ms epochs and the simulator models them as 250000
// cycles (MachineParams::epochCycles), so epoch_ms maps through that
// same ratio.
constexpr std::uint64_t kPaperEpochCycles = 250000;
constexpr std::uint64_t kPaperEpochMs = 3;
// 10 s epochs stay below 2^30 cycles, so 2^33 epochs of warm-up plus
// measurement (each count is a 32-bit CLI value) stay below 2^63.
constexpr std::uint64_t kMaxEpochMs = 10000;

} // namespace

SchedulerRegistry &
SchedulerRegistry::mutableInstance()
{
    static SchedulerRegistry registry;
    return registry;
}

SchedulerRegistry &
SchedulerRegistry::instance()
{
    SchedulerRegistry &registry = mutableInstance();
    registry.ensureBuiltins();
    return registry;
}

void
SchedulerRegistry::ensureBuiltins()
{
    // Lock-free once registration has fully completed. Concurrent
    // first callers (e.g. SweepRunner worker threads building their
    // schedulers) serialize below — a plain bool here was a real
    // TSan-visible race: one thread could see the flag while another
    // was still mutating entries_.
    if (builtins_ready_.load(std::memory_order_acquire))
        return;
    const std::lock_guard<std::recursive_mutex> lock(builtins_mutex_);
    if (builtins_registered_)
        return; // re-entry from a hook, or another thread finished
    // Set the flag first: the register hooks below re-enter through
    // instance() on this same thread.
    builtins_registered_ = true;
    registerLinuxTechnique();
    registerSelectiveOffloadTechnique();
    registerFlexScTechnique();
    registerDisAggregateOsTechnique();
    registerSliccTechnique();
    registerSchedTaskTechnique();
    builtins_ready_.store(true, std::memory_order_release);
}

void
SchedulerRegistry::registerScheduler(SchedulerInfo info)
{
    SCHEDTASK_ASSERT(!info.name.empty(), "technique name must not be empty");
    SCHEDTASK_ASSERT(static_cast<bool>(info.factory),
                     "technique '", info.name, "' has no factory");
    const std::string key = lowered(info.name);
    if (entries_.count(key) != 0)
        SCHEDTASK_PANIC("duplicate technique registration '", info.name,
                        "'");
    std::sort(info.options.begin(), info.options.end(),
              [](const SchedulerOptionSpec &a, const SchedulerOptionSpec &b) {
                  return a.key < b.key;
              });
    entries_.emplace(key, std::move(info));
}

const SchedulerInfo *
SchedulerRegistry::find(std::string_view name) const
{
    const auto it = entries_.find(lowered(name));
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string>
SchedulerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[key, info] : entries_)
        out.push_back(info.name);
    return out;
}

std::vector<const SchedulerInfo *>
SchedulerRegistry::paperEntries() const
{
    std::vector<const SchedulerInfo *> out;
    for (const auto &[key, info] : entries_) {
        if (info.paperOrder >= 0)
            out.push_back(&info);
    }
    std::sort(out.begin(), out.end(),
              [](const SchedulerInfo *a, const SchedulerInfo *b) {
                  return a->paperOrder < b->paperOrder;
              });
    return out;
}

bool
SchedulerRegistry::isBaseline(std::string_view name) const
{
    const SchedulerInfo *info = find(name);
    return info != nullptr && info->isBaseline;
}

const std::vector<SchedulerOptionSpec> &
SchedulerRegistry::universalOptions()
{
    static const std::vector<SchedulerOptionSpec> universal = {
        {"epoch_ms",
         "epoch length in milliseconds (paper default 3; scales "
         "MachineParams::epochCycles)"},
    };
    return universal;
}

void
SchedulerRegistry::validateOptions(const SchedulerInfo &info,
                                   const SchedulerOptions &options) const
{
    for (const auto &[key, value] : options.entries()) {
        const auto known = [&key = key](const SchedulerOptionSpec &spec) {
            return spec.key == key;
        };
        if (std::any_of(info.options.begin(), info.options.end(), known))
            continue;
        if (std::any_of(universalOptions().begin(), universalOptions().end(),
                        known))
            continue;
        std::string valid;
        for (const auto &spec : info.options)
            valid += valid.empty() ? spec.key : ", " + spec.key;
        for (const auto &spec : universalOptions())
            valid += valid.empty() ? spec.key : ", " + spec.key;
        throw SchedulerOptionError(
            "unknown option '" + key + "' for technique '" + info.name +
            "' (valid: " + (valid.empty() ? "none" : valid) + ")");
    }
}

const SchedulerInfo &
SchedulerRegistry::resolve(std::string_view name) const
{
    const SchedulerInfo *info = find(name);
    if (info == nullptr) {
        std::string registered;
        for (const std::string &n : names())
            registered += registered.empty() ? n : ", " + n;
        throw SchedulerOptionError("unknown technique '" +
                                   std::string(name) +
                                   "' (registered: " + registered + ")");
    }
    return *info;
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(std::string_view name,
                        const SchedulerOptions &options,
                        const SchedTaskParams &sched_task) const
{
    const SchedulerInfo &info = resolve(name);
    validateOptions(info, options);
    const SchedulerFactoryContext ctx{options, sched_task};
    std::unique_ptr<Scheduler> sched = info.factory(ctx);
    SCHEDTASK_ASSERT(sched != nullptr, "technique '", info.name,
                     "' factory returned nullptr");
    if (options.has("epoch_ms")) {
        const std::uint64_t ms =
            options.getUnsigned("epoch_ms", kPaperEpochMs, 1, kMaxEpochMs);
        sched->overrideEpochCycles(
            static_cast<Cycles>(ms * kPaperEpochCycles / kPaperEpochMs));
    }
    return sched;
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(const TechniqueSpec &spec,
                        const SchedTaskParams &sched_task) const
{
    return make(spec.name, spec.options, sched_task);
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(const TechniqueSpec &spec) const
{
    const SchedTaskParams defaults;
    return make(spec.name, spec.options, defaults);
}

} // namespace schedtask
