/**
 * @file
 * Writing a custom scheduler against the public registry API.
 *
 * This example implements "TypeHash", a minimal core-specialization
 * scheduler in ~30 lines: every superFuncType is statically hashed
 * to a home core, with no profiling, no heatmaps and no stealing.
 * It already captures some of SchedTask's benefit (same type ->
 * same core) and none of its load balance — a good starting point
 * for scheduler research on this simulator.
 *
 * The interesting part is the registration: one
 * SchedulerRegistry::registerScheduler() call makes the technique a
 * first-class citizen — runnable through runOnce()/compare() and the
 * sweep runner as TechniqueSpec{"type-hash"}, exactly like the
 * built-ins. No harness edit, no enum case, no switch.
 *
 * Run: ./build/examples/custom_scheduler [benchmark]
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "sched/registry.hh"
#include "sched/scheduler.hh"
#include "stats/table.hh"

using namespace schedtask;

namespace
{

/**
 * Static type-to-core hashing: the simplest possible fine-grained
 * core specialization.
 */
class TypeHashScheduler : public QueueScheduler
{
  public:
    const char *name() const override { return "TypeHash"; }

    CoreId
    routeIrq(IrqId irq) override
    {
        // Interrupts of one vector always hit the same core, like
        // an IO-APIC with static affinity.
        return static_cast<CoreId>(irq % numCores());
    }

  protected:
    CoreId
    choosePlacement(SuperFunction *sf, PlacementReason reason) override
    {
        (void)reason;
        // Mix the type bits and pick a home core.
        std::uint64_t h = sf->type.raw();
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<CoreId>(h % numCores());
    }
};

/** Make "type-hash" resolvable by name. */
void
registerTypeHash()
{
    SchedulerInfo info;
    info.name = "type-hash";
    info.description =
        "static type-to-core hashing demo (examples/custom_scheduler)";
    info.factory = [](const SchedTaskParams &) {
        return std::make_unique<TypeHashScheduler>();
    };
    SchedulerRegistry::instance().registerScheduler(std::move(info));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "Apache";
    const ExperimentConfig cfg = ExperimentConfig::standard(bench);
    if (const std::optional<std::string> error =
            cfg.validate(TechniqueSpec{"SchedTask"})) {
        std::fprintf(stderr, "custom_scheduler: %s\n", error->c_str());
        return 2;
    }

    printHeader("Custom scheduler demo on " + bench
                + " (2X workload)");

    registerTypeHash();

    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});

    // Registered techniques run through the same spec-based entry
    // points as the built-ins.
    const RunResult mine = runOnce(cfg, TechniqueSpec{"type-hash"});
    const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});

    TextTable table({"scheduler", "throughput vs Linux", "idle (%)",
                     "i-hit OS (pp)", "i-hit app (pp)"});
    auto row = [&](const char *name, const RunResult &r) {
        table.addRow({name,
                      TextTable::pct(percentChange(
                          base.instThroughput(),
                          r.instThroughput())) + " %",
                      TextTable::num(r.idlePercent()),
                      TextTable::pct(pointChange(base.iHitOs,
                                                 r.iHitOs)),
                      TextTable::pct(pointChange(base.iHitApp,
                                                 r.iHitApp))});
    };
    row("type-hash (custom)", mine);
    row("SchedTask", st);

    std::printf("%s\n", table.render().c_str());
    std::printf("Static hashing gets the i-cache benefit but pays "
                "for it with idleness (no profiling, no stealing); "
                "SchedTask keeps the benefit and the balance.\n");
    return 0;
}
