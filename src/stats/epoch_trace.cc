#include "stats/epoch_trace.hh"

#include "common/invariants.hh"

namespace schedtask
{

const char *
sfEventKindName(SfEventKind kind)
{
    switch (kind) {
      case SfEventKind::Dispatch:
        return "dispatch";
      case SfEventKind::Complete:
        return "complete";
      case SfEventKind::Block:
        return "block";
      case SfEventKind::Wakeup:
        return "wakeup";
      case SfEventKind::Pause:
        return "pause";
      case SfEventKind::Migrate:
        return "migrate";
    }
    return "unknown";
}

void
EpochTrace::record(EpochSample sample)
{
    if constexpr (checkedBuild) {
        const std::uint64_t total = samples_.totalRecorded();
        SCHEDTASK_ASSERT(sample.index == total,
                         "epoch sample index ", sample.index,
                         " != ", total, " recorded so far");
        SCHEDTASK_ASSERT(sample.endCycle >= sample.startCycle,
                         "epoch sample runs backwards: [",
                         sample.startCycle, ", ", sample.endCycle,
                         ")");
        SCHEDTASK_ASSERT(total == 0 || sample.startCycle >= last_end_,
                         "epoch sample starts at ",
                         sample.startCycle,
                         " before the previous end ", last_end_);
        SCHEDTASK_ASSERT(sample.instsRetired >= sample.overheadInsts,
                         "epoch overhead ", sample.overheadInsts,
                         " exceeds retired ", sample.instsRetired);
        const std::uint64_t span =
            (sample.endCycle - sample.startCycle)
            * sample.cores.size();
        SCHEDTASK_ASSERT(sample.cores.empty()
                             || sample.idleCycles <= span,
                         "epoch idle ", sample.idleCycles,
                         " exceeds ", span, " core-cycles");
    }
    last_end_ = sample.endCycle;
    samples_.push(std::move(sample));
}

void
EpochTrace::record(const SfEvent &event)
{
    events_.push(event);
}

} // namespace schedtask
