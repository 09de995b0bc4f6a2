#include "sched/options.hh"

#include <cctype>
#include <sstream>

#include "common/parse_num.hh"

namespace schedtask
{

namespace
{

bool
validKey(std::string_view key)
{
    if (key.empty())
        return false;
    for (char c : key) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

[[noreturn]] void
fail(const std::string &message)
{
    throw SchedulerOptionError(message);
}

} // namespace

SchedulerOptions
SchedulerOptions::parse(std::string_view text)
{
    SchedulerOptions opts;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string_view::npos)
            comma = text.size();
        const std::string_view item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            fail("empty option in '" + std::string(text) + "'");
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos)
            fail("option '" + std::string(item) +
                 "' is not of the form key=value");
        opts.set(std::string(item.substr(0, eq)),
                 std::string(item.substr(eq + 1)));
    }
    return opts;
}

void
SchedulerOptions::set(std::string key, std::string value)
{
    if (!validKey(key))
        fail("invalid option key '" + key +
             "' (expected [A-Za-z0-9_]+)");
    if (value.empty())
        fail("option '" + key + "' has an empty value");
    if (has(key))
        fail("duplicate option key '" + key + "'");
    entries_.emplace_back(std::move(key), std::move(value));
}

bool
SchedulerOptions::has(std::string_view key) const
{
    return findValue(key) != nullptr;
}

const std::string *
SchedulerOptions::findValue(std::string_view key) const
{
    for (const auto &[k, v] : entries_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::uint64_t
SchedulerOptions::getUnsigned(std::string_view key, std::uint64_t fallback,
                              std::uint64_t lo, std::uint64_t hi) const
{
    const std::string *value = findValue(key);
    if (value == nullptr)
        return fallback;
    const auto parsed = parseUnsigned(*value);
    if (!parsed)
        fail("option '" + std::string(key) +
             "': expected an unsigned integer, got '" + *value + "'");
    if (*parsed < lo || *parsed > hi)
        throw optionOutOfRange(key, lo, hi);
    return *parsed;
}

double
SchedulerOptions::getDouble(std::string_view key, double fallback,
                            double lo, double hi) const
{
    const std::string *value = findValue(key);
    if (value == nullptr)
        return fallback;
    const auto parsed = parseDouble(*value);
    if (!parsed)
        fail("option '" + std::string(key) +
             "': expected a number, got '" + *value + "'");
    if (*parsed < lo || *parsed > hi) {
        std::ostringstream msg;
        msg << "option '" << key << "' must be in [" << lo << ", " << hi
            << "]";
        throw SchedulerOptionError(msg.str());
    }
    return *parsed;
}

bool
SchedulerOptions::getBool(std::string_view key, bool fallback) const
{
    const std::string *value = findValue(key);
    if (value == nullptr)
        return fallback;
    const std::string &v = *value;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fail("option '" + std::string(key) +
         "': expected a boolean (1/0, true/false, yes/no, on/off), "
         "got '" +
         v + "'");
}

std::string
SchedulerOptions::getString(std::string_view key,
                            std::string_view fallback) const
{
    const std::string *value = findValue(key);
    return value != nullptr ? *value : std::string(fallback);
}

SchedulerOptionError
optionOutOfRange(std::string_view key, std::uint64_t lo, std::uint64_t hi)
{
    return SchedulerOptionError("option '" + std::string(key)
                                + "' must be in [" + std::to_string(lo)
                                + ", " + std::to_string(hi) + "]");
}

std::string
SchedulerOptions::str() const
{
    std::string out;
    for (const auto &[k, v] : entries_) {
        if (!out.empty())
            out += ',';
        out += k;
        out += '=';
        out += v;
    }
    return out;
}

std::string
TechniqueSpec::str() const
{
    if (options.empty())
        return name;
    return name + ':' + options.str();
}

TechniqueSpec
parseTechniqueSpec(std::string_view text)
{
    TechniqueSpec spec;
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) {
        spec.name = std::string(text);
    } else {
        spec.name = std::string(text.substr(0, colon));
        spec.options = SchedulerOptions::parse(text.substr(colon + 1));
    }
    if (spec.name.empty())
        fail("empty technique name in '" + std::string(text) + "'");
    return spec;
}

} // namespace schedtask
