/**
 * @file
 * json_lint: validate a JSON (or JSON Lines) file.
 *
 * Used by the tier-1 CI tests to check that the epoch-trace export
 * of `schedtask-sim --trace-dir` is well-formed without depending on an
 * external JSON tool.
 *
 * Usage: json_lint [--jsonl] FILE
 * Exit codes: 0 valid, 1 invalid (error on stderr), 2 usage.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/trace_export.hh"

int
main(int argc, char **argv)
{
    bool jsonl = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jsonl") {
            jsonl = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: json_lint [--jsonl] FILE\n");
            return 0;
        } else if (!path) {
            path = argv[i];
        } else {
            std::fprintf(stderr, "usage: json_lint [--jsonl] FILE\n");
            return 2;
        }
    }
    if (!path) {
        std::fprintf(stderr, "usage: json_lint [--jsonl] FILE\n");
        return 2;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "json_lint: cannot open %s\n", path);
        return 1;
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
        return 1;
    }
    return 0;
}
