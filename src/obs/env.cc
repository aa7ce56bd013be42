#include "obs/env.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace drs::obs {

namespace {

std::string_view
trim(std::string_view text)
{
    constexpr std::string_view kSpace = " \t\n\v\f\r";
    const std::size_t first = text.find_first_not_of(kSpace);
    if (first == std::string_view::npos)
        return {};
    return text.substr(first, text.find_last_not_of(kSpace) - first + 1);
}

/** Decimal or 0x-hex digits with no sign, or nullopt. */
std::optional<std::uint64_t>
parseDigits(std::string_view text)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    if (hex)
        text.remove_prefix(2);
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, value, hex ? 16 : 10);
    if (text.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace

std::optional<long long>
parseInt(std::string_view text, long long min, long long max)
{
    text = trim(text);
    const bool negative = text.starts_with('-');
    if (negative || text.starts_with('+'))
        text.remove_prefix(1);
    const std::optional<std::uint64_t> digits = parseDigits(text);
    // Negating in unsigned arithmetic reaches LLONG_MIN without overflow.
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<long long>::max()) +
        (negative ? 1 : 0);
    if (!digits || *digits > limit)
        return std::nullopt;
    const auto value =
        static_cast<long long>(negative ? 0 - *digits : *digits);
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    text = trim(text);
    if (text.starts_with('-') || text.starts_with('+'))
        return std::nullopt;
    return parseDigits(text);
}

std::optional<double>
parseReal(std::string_view text, double min, double max)
{
    text = trim(text);
    // from_chars takes '-' but not '+'; "+-1" stays an error.
    if (text.starts_with('+') && !text.substr(1).starts_with('-'))
        text.remove_prefix(1);
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(value) || value < min || value > max)
        return std::nullopt;
    return value;
}

std::string
wantInt(long long min, long long max)
{
    return "an integer in [" + std::to_string(min) + ", " +
           std::to_string(max) + "]";
}

std::string
wantReal(double min, double max)
{
    const bool open = min == kPositive;
    const double low = open ? 0.0 : min;
    char want[64];
    if (max >= std::numeric_limits<float>::max())
        std::snprintf(want, sizeof want, "a finite real %s %g",
                      open ? ">" : ">=", low);
    else
        std::snprintf(want, sizeof want, "a finite real in %c%g, %g]",
                      open ? '(' : '[', low, max);
    return want;
}

void
warnIgnored(std::string_view name, std::string_view text,
            std::string_view want)
{
    std::fprintf(stderr, "warning: ignoring %.*s=\"%.*s\" (want %.*s)\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(text.size()), text.data(),
                 static_cast<int>(want.size()), want.data());
}

const char *
envRaw(const char *name)
{
    return std::getenv(name);
}

} // namespace drs::obs
