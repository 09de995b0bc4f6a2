/**
 * @file
 * Page-heatmap playground: the Section 3.2 mechanism in isolation.
 *
 * Builds the kernel catalog, fills one Page-heatmap register per
 * system-call handler from its code footprint, and prints the
 * pairwise Hamming-weight overlap matrix — the numbers TAlloc's
 * overlap table is built from. The read/pread pair stands out
 * exactly as in the paper's Section 3.2 example, while fs and net
 * handlers share only the kernel entry stubs.
 *
 * Run: ./build/examples/heatmap_playground [bits]
 */

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/parse_num.hh"
#include "core/page_heatmap.hh"
#include "stats/table.hh"
#include "workload/sf_catalog.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    unsigned bits = 512;
    if (argc > 1) {
        const std::optional<std::uint64_t> value = parseUnsigned(argv[1]);
        if (!value || *value > 65536
            || !PageHeatmap::validWidth(static_cast<unsigned>(*value))) {
            std::fprintf(stderr,
                         "heatmap_playground: invalid width '%s' "
                         "(expected a power of two in [64, 65536])\n",
                         argv[1]);
            return 2;
        }
        bits = static_cast<unsigned>(*value);
    }

    SfCatalog catalog;
    const std::vector<const char *> handlers = {
        "sys_read", "sys_pread", "sys_write", "sys_open",
        "sys_recv", "sys_send",  "sys_fork",
    };

    // Fill one register per handler from its footprint, as the
    // hardware would while the handler executes.
    std::vector<PageHeatmap> maps;
    maps.reserve(handlers.size());
    for (const char *name : handlers) {
        PageHeatmap hm(bits);
        for (Addr line : catalog.byName(name).code.lines())
            hm.insertAddr(line);
        maps.push_back(std::move(hm));
    }

    std::printf("Pairwise Page-heatmap overlap (Hamming weight of "
                "ANDed %u-bit registers):\n\n", bits);
    std::vector<std::string> headers = {"handler"};
    for (const char *name : handlers)
        headers.emplace_back(name + 4); // strip "sys_"
    TextTable table(headers);
    for (std::size_t a = 0; a < handlers.size(); ++a) {
        std::vector<std::string> row = {handlers[a]};
        for (std::size_t b = 0; b < handlers.size(); ++b) {
            row.push_back(a == b
                              ? "-"
                              : std::to_string(
                                    maps[a].overlap(maps[b])));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Exact common pages, for comparison:\n\n");
    TextTable exact(headers);
    for (std::size_t a = 0; a < handlers.size(); ++a) {
        std::vector<std::string> row = {handlers[a]};
        for (std::size_t b = 0; b < handlers.size(); ++b) {
            row.push_back(
                a == b ? "-"
                       : std::to_string(
                             catalog.byName(handlers[a])
                                 .code.exactPageOverlap(
                                     catalog.byName(handlers[b])
                                         .code)));
        }
        exact.addRow(std::move(row));
    }
    std::printf("%s\n", exact.render().c_str());

    std::printf("Note how read/pread dominate their rows (the "
                "paper's Section 3.2 example), and how narrow "
                "registers inflate the small overlaps (rerun with "
                "128).\n");
    return 0;
}
