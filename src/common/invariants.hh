/**
 * @file
 * Build-time switch for the runtime simulation invariant checker.
 *
 * The `checked` CMake preset (SCHEDTASK_CHECK_INVARIANTS=ON) turns
 * on structural self-checks at every epoch boundary: instruction
 * accounting must balance, core allocations must cover the core
 * set, heatmap popcounts must fit the register, event and trace
 * timestamps must be monotone, and every cache level must be
 * structurally sound — validBlocks() never exceeds sets * assoc, no
 * set holds two valid copies of one tag (guarding against the
 * invalidate-then-reinsert duplicate-line regression) and every
 * set's recency word is a permutation of its ways
 * (MemHierarchy::checkCacheInvariants), and every
 * scheduler's running per-core backlog must equal a scan of its
 * queue (Scheduler::checkInvariants).
 * Checks are written as
 *
 *     if constexpr (checkedBuild) { ... SCHEDTASK_ASSERT(...); }
 *
 * so both arms always compile; a default build pays nothing, and a
 * checked build must be observationally identical apart from the
 * asserts (tools/check.sh diffs the trace output of both builds).
 */

#ifndef SCHEDTASK_COMMON_INVARIANTS_HH
#define SCHEDTASK_COMMON_INVARIANTS_HH

namespace schedtask
{

#ifdef SCHEDTASK_CHECK_INVARIANTS
inline constexpr bool checkedBuild = true;
#else
inline constexpr bool checkedBuild = false;
#endif

} // namespace schedtask

#endif // SCHEDTASK_COMMON_INVARIANTS_HH
