/**
 * @file
 * json_lint: validate JSON (or JSON Lines) files.
 *
 * Used by the tier-1 CI tests to check that the epoch-trace exports
 * of `schedtask-sim --trace-dir` and `schedtask-figures --trace-dir`
 * are well-formed without depending on an external JSON tool.
 *
 * Usage: json_lint [--jsonl] FILE...
 * Exit codes: 0 all valid, 1 any invalid (errors on stderr), 2 usage.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/trace_export.hh"

int
main(int argc, char **argv)
{
    bool jsonl = false;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jsonl") {
            jsonl = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: json_lint [--jsonl] FILE...\n");
            return 0;
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr, "usage: json_lint [--jsonl] FILE...\n");
        return 2;
    }

    int status = 0;
    for (const char *path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "json_lint: cannot open %s\n", path);
            status = 1;
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();

        std::string error;
        const bool ok = jsonl
            ? schedtask::validateJsonLines(text, &error)
            : schedtask::validateJson(text, &error);
        if (!ok) {
            std::fprintf(stderr, "json_lint: %s: %s\n", path,
                         error.c_str());
            status = 1;
        }
    }
    return status;
}
