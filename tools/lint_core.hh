/**
 * @file
 * schedtask-lint: a dependency-free, token-level linter for the
 * project's determinism and safety conventions. The simulator's
 * headline claims only hold if runs are bit-exact, so rules that a
 * general-purpose linter cannot know about (no wall-clock time
 * sources, no iteration over unordered containers in output writers,
 * no silent atoi-style parsing) are enforced mechanically here and
 * run as a tier-1 ctest.
 *
 * Rules:
 *   DET-01  non-deterministic sources (rand, time(), random_device,
 *           steady_clock, ...) outside src/common/random.*
 *   DET-02  range-for / iterator loops over std::unordered_map or
 *           std::unordered_set in output-writing files
 *           (trace_export, reporting, visualize, src/stats/) unless
 *           the loop body feeds a sorted container
 *   SAFE-01 atoi/atof/strtol family outside src/common/parse_num.*
 *           (use schedtask::parseUnsigned / parseDouble)
 *   SAFE-02 abort() instead of SCHEDTASK_PANIC; redundant `virtual`
 *           on an `override` declaration
 *   STY-01  header guards must be SCHEDTASK_<PATH>_HH
 *   SIMD-01 vector intrinsics (_mm..., __m...) or ISA feature
 *           macros (__AVX..., __SSE...) anywhere in the tree
 *   LINT-00 a `lint:allow` pragma with no reason text
 *
 * Any rule except LINT-00 can be silenced for one line with
 * `// lint:allow(RULE) reason` on that line or the line above.
 */

#ifndef SCHEDTASK_TOOLS_LINT_CORE_HH
#define SCHEDTASK_TOOLS_LINT_CORE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace schedtask::lint
{

/** One finding, formatted as `file:line: [RULE] message`. */
struct Diag
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    std::string str() const;
};

/**
 * Lint one translation unit. `rel_path` is the repo-relative path
 * (e.g. "src/sim/machine.cc"); it selects which rules apply and
 * which exemptions hold. Diagnostics come back ordered by line.
 */
std::vector<Diag> lintSource(const std::string &rel_path,
                             const std::string &content);

/**
 * The CLI entry point, separated from main() so tests can drive
 * multi-file invocations in-process. Arguments are everything after
 * argv[0]: either `--root DIR` (lint src/ bench/ tools/ tests/ under
 * DIR) or an explicit list of files. Diagnostics go to `out`, usage
 * and I/O errors to `err`. Returns the process exit code: 0 clean,
 * 1 findings, 2 usage or I/O error.
 */
int runLint(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err);

} // namespace schedtask::lint

#endif // SCHEDTASK_TOOLS_LINT_CORE_HH
