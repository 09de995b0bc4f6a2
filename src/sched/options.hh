/**
 * @file
 * Typed option blobs for scheduler factories.
 *
 * Techniques registered with the SchedulerRegistry are configured
 * through a flat key=value option list parsed from the CLI grammar
 *
 *     --technique name:key=val,key=val
 *
 * Parsing follows the project's strict common/parse_num conventions:
 * a malformed key, a malformed value, or a duplicate key is an error
 * (SchedulerOptionError), never a silent default. Lookup order is
 * preserved so canonical renderings (str()) are deterministic.
 */

#ifndef SCHEDTASK_SCHED_OPTIONS_HH
#define SCHEDTASK_SCHED_OPTIONS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace schedtask
{

/** Raised on malformed option text, bad values, or unknown keys. */
class SchedulerOptionError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * An ordered key=value option list with strictly-typed getters.
 * Getters throw SchedulerOptionError when a present value does not
 * parse as the requested type; absent keys yield the fallback.
 */
class SchedulerOptions
{
  public:
    SchedulerOptions() = default;

    /** Parse "key=val,key=val"; empty text yields no options. */
    static SchedulerOptions parse(std::string_view text);

    /** Programmatic insert; throws on a duplicate or invalid key. */
    void set(std::string key, std::string value);

    bool has(std::string_view key) const;
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /**
     * Unsigned integer value (parseUnsigned semantics) in [lo, hi].
     * A present value outside the range throws optionOutOfRange();
     * the fallback is returned unchecked.
     */
    std::uint64_t getUnsigned(std::string_view key, std::uint64_t fallback,
                              std::uint64_t lo, std::uint64_t hi) const;

    /**
     * Floating-point value (parseDouble semantics) in [lo, hi]. A
     * present value outside the range throws "option 'key' must be
     * in [lo, hi]"; the fallback is returned unchecked.
     */
    double getDouble(std::string_view key, double fallback, double lo,
                     double hi) const;

    /** Boolean value: 1/0, true/false, yes/no, on/off. */
    bool getBool(std::string_view key, bool fallback) const;

    /** Raw string value. */
    std::string getString(std::string_view key,
                          std::string_view fallback) const;

    /** Entries in insertion order. */
    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return entries_;
    }

    /** Canonical "key=val,key=val" rendering (insertion order). */
    std::string str() const;

  private:
    const std::string *findValue(std::string_view key) const;

    std::vector<std::pair<std::string, std::string>> entries_;
};

/**
 * Upper bound of every option counted in cycles or instructions, and
 * of counts compared against queue lengths. Such a value is charged
 * at most once onto a simulated clock that stays below 2^63 (epoch_ms
 * is bounded for that), so it can never wrap a Cycles sum.
 */
inline constexpr std::uint64_t kMaxOptionCount = 0xffff'ffff;

/** The error for option `key` holding a value outside [lo, hi]:
 *  "option 'key' must be in [lo, hi]". */
SchedulerOptionError optionOutOfRange(std::string_view key,
                                      std::uint64_t lo, std::uint64_t hi);

/**
 * A technique selection: registry name plus its option blob. This is
 * the currency the harness passes around; aggregate initialization
 * names one without options: TechniqueSpec{"Linux"}.
 */
struct TechniqueSpec
{
    std::string name = "SchedTask";
    /** Braced so TechniqueSpec{"Linux"} initializes it without a
     *  missing-initializer warning. */
    SchedulerOptions options{};

    /** Canonical "name" or "name:key=val,..." rendering. */
    std::string str() const;
};

/** Parse the full "--technique name[:key=val,...]" grammar. */
TechniqueSpec parseTechniqueSpec(std::string_view text);

} // namespace schedtask

#endif // SCHEDTASK_SCHED_OPTIONS_HH
