/**
 * @file
 * In-process fuzzer for the user-input path of schedtask-sim: the
 * "name:key=val,..." technique grammar (parseTechniqueSpec, the
 * registry lookup, validateOptions) and ExperimentConfig::validate
 * over every machine shape the CLI flags can express. The inputs
 * come from a seeded Rng, so a failing case is reproducible by its
 * number. The contract is the CLI's: every input is accepted or
 * rejected with a message — it never aborts (which would kill this
 * binary) and never throws anything but SchedulerOptionError.
 * Nothing is simulated and no process is started.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "harness/experiment.hh"
#include "sched/options.hh"
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

/** A short string over the grammar's separators and a few letters. */
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

/** Option values: edges of every range the options check, the
 *  number grammars' edge cases, and random digits. */
std::string
optionValue(Rng &rng)
{
    static const std::vector<std::string> edges = {
        "0", "1", "2", "-1", "-5", "0.5", "1e308", "-1e308", "1e-320",
        "nan", "inf", "-inf", "4294967295", "4294967296", "4294967297",
        "18446744073709551615", "18446744073709551616", "73786976294839",
        "10000", "10001", "65536", "65537", "0x10", "1e3", " 1", "1 ",
        "+1", "00", "", "yes", "no", "true", "off", "similar", "same",
        "none", "busiest"};
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

/** Every option key any technique accepts, plus the universal ones. */
std::vector<std::string>
allOptionKeys()
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    std::vector<std::string> keys;
    for (const std::string &name : reg.names())
        for (const SchedulerOptionSpec &opt : reg.find(name)->options)
            keys.push_back(opt.key);
    for (const SchedulerOptionSpec &opt :
         SchedulerRegistry::universalOptions())
        keys.push_back(opt.key);
    return keys;
}

/** One --technique argument: mostly well-formed, sometimes not. */
std::string
techniqueText(Rng &rng, const std::vector<std::string> &names,
              const std::vector<std::string> &keys)
{
    std::string text =
        rng.chance(0.9) ? recase(rng, pick(rng, names)) : garbage(rng);
    const std::uint64_t options = rng.chance(0.5) ? 0 : rng.below(4);
    for (std::uint64_t i = 0; i < options; ++i) {
        text += i == 0 ? ":" : ",";
        if (rng.chance(0.05))
            continue; // empty entry
        text += rng.chance(0.85) ? pick(rng, keys) : garbage(rng);
        if (rng.chance(0.95))
            text += "=";
        text += optionValue(rng);
    }
    if (rng.chance(0.03))
        text += pick(rng, std::vector<std::string>{":", ",", "=", ":x"});
    return text;
}

/** The unsigned values a CLI flag can carry: mostly its default,
 *  else an edge, else anything at or above the flag's minimum. */
unsigned
flagValue(Rng &rng, unsigned fallback, const std::vector<unsigned> &edges,
          unsigned min)
{
    if (rng.chance(0.6))
        return fallback;
    if (rng.chance(0.8))
        return pick(rng, edges);
    const auto v = static_cast<unsigned>(rng());
    return v < min ? min : v;
}

/** A configuration schedtask-sim could build from its flags. */
ExperimentConfig
cliConfig(Rng &rng)
{
    static const std::vector<double> scales = {
        1e-300, 1e-9, 0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 8.0, 16.0,
        100.0, 1e4, 1e9, 1e308, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max()};
    ExperimentConfig cfg;
    double scale = 2.0;
    if (rng.chance(0.3))
        scale = pick(rng, scales);
    else if (rng.chance(0.3))
        scale = 0x1.0p-20 + rng.uniform() * 64.0;
    if (rng.chance(0.15)) {
        cfg.parts = Workload::bagParts(pick(rng, Workload::bagNames()));
    } else {
        const std::string bench = rng.chance(0.95)
            ? pick(rng, BenchmarkSuite::benchmarkNames())
            : garbage(rng);
        cfg.parts = {{bench, scale}};
    }
    cfg.baselineCores = flagValue(
        rng, 32,
        {1, 2, 3, 8, 16, 31, 32, 33, 63, 64, 65, 128, 1u << 31,
         0xffff'ffffu},
        1);
    cfg.machine.heatmapBits = flagValue(
        rng, 512,
        {1, 32, 63, 64, 100, 128, 512, 2048, 65536, 65537, 131072,
         0xffff'ffffu},
        1);
    cfg.warmupEpochs = flagValue(rng, 4, {0, 1, 0xffff'ffffu}, 0);
    cfg.measureEpochs = flagValue(rng, 6, {1, 2, 0xffff'ffffu}, 1);
    cfg.machine.seed = rng();
    return cfg;
}

} // namespace

TEST(InputFuzz, TechniqueSpecAndValidateAcceptOrReject)
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    const std::vector<std::string> names = reg.names();
    const std::vector<std::string> keys = allOptionKeys();
    Rng rng(0xf022);
    unsigned accepted = 0;
    unsigned rejected = 0;
    constexpr unsigned cases = 10000;
    for (unsigned i = 0; i < cases; ++i) {
        const std::string text = techniqueText(rng, names, keys);
        const ExperimentConfig cfg = cliConfig(rng);
        SCOPED_TRACE(::testing::Message()
                     << "case " << i << " --technique '" << text << "'");
        // The CLI's order: grammar, registry name, option keys, then
        // one validate() for values and the machine shape.
        std::optional<std::string> error;
        try {
            TechniqueSpec spec = parseTechniqueSpec(text);
            if (const SchedulerInfo *info = reg.find(spec.name)) {
                spec.name = info->name;
                reg.validateOptions(*info, spec.options);
                error = cfg.validate(spec);
            } else {
                error = "unknown technique '" + spec.name + "'";
            }
        } catch (const SchedulerOptionError &e) {
            error = e.what();
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
