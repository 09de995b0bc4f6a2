/**
 * @file
 * CLI wrapper for schedtask-lint (see lint_core.hh for the rules).
 *
 *   schedtask_lint --root /path/to/repo    # lint src bench tools tests
 *                                          # examples
 *   schedtask_lint file.cc other.hh        # lint explicit files
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error — the same
 * contract as json_lint.
 */

#include <iostream>
#include <string>
#include <vector>

#include "lint_core.hh"

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    return schedtask::lint::runLint(args, std::cout, std::cerr);
}
