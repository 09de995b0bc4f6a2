#include "sched/registry.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace schedtask
{

// Built-in registration hooks, defined next to each technique. Called
// explicitly from the constructor rather than via static registrar
// objects so that linking the library statically cannot dead-strip a
// technique.
void registerLinuxTechnique(SchedulerRegistry &registry);
void registerSelectiveOffloadTechnique(SchedulerRegistry &registry);
void registerFlexScTechnique(SchedulerRegistry &registry);
void registerDisAggregateOsTechnique(SchedulerRegistry &registry);
void registerSliccTechnique(SchedulerRegistry &registry);
void registerSchedTaskTechnique(SchedulerRegistry &registry);

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

} // namespace

SchedulerRegistry::SchedulerRegistry()
{
    registerLinuxTechnique(*this);
    registerSelectiveOffloadTechnique(*this);
    registerFlexScTechnique(*this);
    registerDisAggregateOsTechnique(*this);
    registerSliccTechnique(*this);
    registerSchedTaskTechnique(*this);
}

SchedulerRegistry &
SchedulerRegistry::instance()
{
    // C++ runs a function-local static's initializer exactly once,
    // even when SweepRunner workers race to the first call, and
    // publishes the finished map to every caller.
    static SchedulerRegistry registry;
    return registry;
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

const SchedulerInfo &
SchedulerRegistry::resolve(std::string_view name) const
{
    const SchedulerInfo *info = find(name);
    if (info == nullptr) {
        std::string registered;
        for (const std::string &n : names())
            registered += registered.empty() ? n : ", " + n;
        throw TechniqueError("unknown technique '" + std::string(name)
                             + "' (registered: " + registered + ")");
    }
    return *info;
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(const TechniqueSpec &spec,
                        const SchedTaskParams &sched_task) const
{
    const SchedulerInfo &info = resolve(spec.name);
    std::unique_ptr<Scheduler> sched = info.factory(sched_task);
    SCHEDTASK_ASSERT(sched != nullptr, "technique '", info.name,
                     "' factory returned nullptr");
    return sched;
}

} // namespace schedtask
