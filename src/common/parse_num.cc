#include "common/parse_num.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace schedtask
{

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    return value;
}

std::optional<double>
parseDouble(std::string_view text)
{
    if (text.empty() || text.front() == ' ' || text.front() == '\t')
        return std::nullopt;
    const std::string copy(text);
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || errno == ERANGE
            || !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

FlagValue<std::uint64_t>
unsignedFlag(std::string_view flag, std::string_view text,
             std::uint64_t min, std::uint64_t max)
{
    const std::optional<std::uint64_t> value = parseUnsigned(text);
    if (value && *value >= min && *value <= max)
        return {*value, {}};
    return {0, "invalid value '" + std::string(text) + "' for "
                   + std::string(flag)
                   + " (expected an unsigned integer in ["
                   + std::to_string(min) + ", " + std::to_string(max)
                   + "])"};
}

FlagValue<double>
positiveDoubleFlag(std::string_view flag, std::string_view text)
{
    const std::optional<double> value = parseDouble(text);
    if (value && *value > 0.0)
        return {*value, {}};
    return {0.0, "invalid value '" + std::string(text) + "' for "
                     + std::string(flag) + " (expected a number > 0)"};
}

} // namespace schedtask
