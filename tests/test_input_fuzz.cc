/**
 * @file
 * In-process fuzzer for the user-input path of schedtask-sim: the
 * numeric flag parsers (unsignedFlag, positiveDoubleFlag), the
 * registry's technique-name lookup, and ExperimentConfig::validate
 * over every machine shape the CLI flags can express. The inputs
 * come from a seeded Rng, so a failing case is reproducible by its
 * number. The contract is the CLI's: every input is accepted or
 * rejected with a message — it never aborts (which would kill this
 * binary) and never throws. Nothing is simulated and no process is
 * started.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_num.hh"
#include "common/random.hh"
#include "harness/experiment.hh"
#include "sched/registry.hh"
#include "workload/benchmarks.hh"
#include "workload/workload.hh"

using namespace schedtask;

namespace
{

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &from)
{
    return from[rng.below(from.size())];
}

/** A short string over separators, signs and a few letters. */
std::string
garbage(Rng &rng)
{
    static const std::string alphabet = "aZ_9.-+:,= \t%x";
    std::string out;
    const std::uint64_t len = rng.below(8);
    for (std::uint64_t i = 0; i < len; ++i)
        out += alphabet[rng.below(alphabet.size())];
    return out;
}

/** Flip the case of some letters (technique names match in any case). */
std::string
recase(Rng &rng, std::string text)
{
    for (char &c : text) {
        if (rng.chance(0.2) && c >= 'a' && c <= 'z')
            c = static_cast<char>(c - 'a' + 'A');
        else if (rng.chance(0.2) && c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    }
    return text;
}

/** Flag text: edges of every range the flags check, the number
 *  grammars' edge cases, and random digits. */
std::string
numberText(Rng &rng)
{
    static const std::vector<std::string> edges = {
        "0", "1", "2", "3", "8", "31", "32", "33", "63", "64", "65",
        "100", "128", "512", "2048", "65536", "65537", "131072", "-1",
        "-5", "0.001", "0.5", "1.0", "2.0", "16", "1e9", "1e308",
        "-1e308", "1e-320", "1e-300", "nan", "inf", "-inf",
        "2147483648", "4294967295", "4294967296", "4294967297",
        "18446744073709551615", "18446744073709551616", "0x10", "1e3",
        " 1", "1 ", "+1", "00", "", "yes"};
    switch (rng.below(4)) {
      case 0:
        return garbage(rng);
      case 1:
        return std::to_string(rng.below(100));
      case 2:
        return std::to_string(rng());
      default:
        return pick(rng, edges);
    }
}

/** Keys of the deleted "name:key=val" technique spellings. */
const std::vector<std::string> formerKeys = {
    "steal", "realloc_guard", "route_irqs", "exact_overlap",
    "talloc_insts", "demand_smoothing", "wait_signal", "min_syscall_cores",
    "segment_lines", "bogus"};

/** One --technique argument: mostly a registered name in any case,
 *  sometimes garbage or a former "name:key=val" spelling. */
std::string
techniqueText(Rng &rng, const std::vector<std::string> &names)
{
    std::string text =
        rng.chance(0.9) ? recase(rng, pick(rng, names)) : garbage(rng);
    if (rng.chance(0.1))
        text += ":" + pick(rng, formerKeys) + "=" + numberText(rng);
    return text;
}

/**
 * One schedtask-sim command line's worth of numeric flags, parsed
 * as the CLI parses them, into `cfg`. Each flag keeps its default
 * when absent; the first flag whose text does not parse is the
 * returned message.
 */
std::optional<std::string>
parseFlags(Rng &rng, ExperimentConfig &cfg)
{
    struct UnsignedFlag
    {
        const char *flag;
        std::uint64_t min;
        std::uint64_t max;
        std::uint64_t *out;
    };
    std::uint64_t cores = cfg.baselineCores;
    std::uint64_t heatmap_bits = cfg.machine.heatmapBits;
    std::uint64_t warmup = cfg.warmupEpochs;
    std::uint64_t measure = cfg.measureEpochs;
    constexpr std::uint64_t u32 = std::numeric_limits<unsigned>::max();
    const UnsignedFlag flags[] = {
        {"--cores", 1, u32, &cores},
        {"--heatmap-bits", 1, u32, &heatmap_bits},
        {"--warmup", 0, u32, &warmup},
        {"--measure", 1, u32, &measure},
        {"--seed", 0, std::numeric_limits<std::uint64_t>::max(),
         &cfg.machine.seed},
    };
    for (const UnsignedFlag &f : flags) {
        if (!rng.chance(0.4))
            continue;
        const FlagValue<std::uint64_t> v =
            unsignedFlag(f.flag, numberText(rng), f.min, f.max);
        if (!v.error.empty()) {
            EXPECT_NE(v.error.find(f.flag), std::string::npos) << v.error;
            return v.error;
        }
        EXPECT_GE(v.value, f.min);
        EXPECT_LE(v.value, f.max);
        *f.out = v.value;
    }
    cfg.baselineCores = static_cast<unsigned>(cores);
    cfg.machine.heatmapBits = static_cast<unsigned>(heatmap_bits);
    cfg.warmupEpochs = static_cast<unsigned>(warmup);
    cfg.measureEpochs = static_cast<unsigned>(measure);

    double scale = 2.0;
    if (rng.chance(0.4)) {
        const FlagValue<double> v = positiveDoubleFlag("--scale",
                                                       numberText(rng));
        if (!v.error.empty()) {
            EXPECT_NE(v.error.find("--scale"), std::string::npos) << v.error;
            return v.error;
        }
        EXPECT_GT(v.value, 0.0);
        scale = v.value;
    }
    if (rng.chance(0.15)) {
        cfg.parts = Workload::bagParts(pick(rng, Workload::bagNames()));
    } else {
        const std::string bench = rng.chance(0.95)
            ? pick(rng, BenchmarkSuite::benchmarkNames())
            : garbage(rng);
        cfg.parts = {{bench, scale}};
    }
    return std::nullopt;
}

} // namespace

TEST(InputFuzz, TechniqueSpecAndValidateAcceptOrReject)
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    const std::vector<std::string> names = reg.names();
    Rng rng(0xf022);
    unsigned accepted = 0;
    unsigned rejected = 0;
    constexpr unsigned cases = 10000;
    for (unsigned i = 0; i < cases; ++i) {
        const std::string text = techniqueText(rng, names);
        ExperimentConfig cfg;
        SCOPED_TRACE(::testing::Message()
                     << "case " << i << " --technique '" << text << "'");
        // The CLI's order: each flag's number, the registry name,
        // then one validate() for the machine shape.
        std::optional<std::string> error = parseFlags(rng, cfg);
        if (!error) {
            if (const SchedulerInfo *info = reg.find(text))
                error = cfg.validate(TechniqueSpec{info->name});
            else
                error = "unknown technique '" + text + "'";
        }
        if (error) {
            ASSERT_FALSE(error->empty());
            ++rejected;
        } else {
            ++accepted;
        }
    }
    // Both outcomes must be common, or the generator has drifted
    // away from the interesting boundary.
    EXPECT_GT(accepted, cases / 20);
    EXPECT_GT(rejected, cases / 20);
}
