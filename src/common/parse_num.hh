/**
 * @file
 * Strict numeric parsing for CLI flags.
 *
 * std::atoi silently turns garbage into 0 ("--cores xyz" used to
 * build a 0-core machine); these helpers accept a value only when
 * the whole string is a well-formed number, and return nullopt
 * otherwise so callers can produce a proper diagnostic.
 */

#ifndef SCHEDTASK_COMMON_PARSE_NUM_HH
#define SCHEDTASK_COMMON_PARSE_NUM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace schedtask
{

/**
 * Parse a base-10 unsigned integer. The entire string must consist
 * of digits (no sign, no whitespace, no suffix); overflow fails.
 */
std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/**
 * Parse a finite decimal floating-point number (strtod grammar,
 * whole string, no whitespace; nan/inf rejected).
 */
std::optional<double> parseDouble(std::string_view text);

/**
 * The value of a numeric CLI flag, or why its text is not one:
 * `error` is empty exactly when `value` holds the parsed number.
 */
template <typename T>
struct FlagValue
{
    T value{};
    std::string error;
};

/**
 * `text` as the value of `flag`: an unsigned integer (parseUnsigned)
 * in [min, max], so a value too large for the flag's type is
 * rejected instead of being truncated into it. The error reads
 * "invalid value 'TEXT' for FLAG (expected an unsigned integer in
 * [MIN, MAX])".
 */
FlagValue<std::uint64_t> unsignedFlag(std::string_view flag,
                                      std::string_view text,
                                      std::uint64_t min, std::uint64_t max);

/** `text` as the value of `flag`: a number (parseDouble) > 0. */
FlagValue<double> positiveDoubleFlag(std::string_view flag,
                                     std::string_view text);

} // namespace schedtask

#endif // SCHEDTASK_COMMON_PARSE_NUM_HH
