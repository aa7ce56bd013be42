#pragma once

/**
 * @file
 * The one parser for every DRS_* environment knob and numeric CLI flag.
 * Contract: surrounding whitespace is accepted; integers are decimal or
 * 0x hex (a leading zero is decimal, never octal), with fractions,
 * exponents and out-of-range values rejected; unsigned values reject any
 * sign; reals must be finite and in range; flags are 0 or 1; empty is
 * malformed. A set but malformed knob keeps its default and prints
 * exactly one line:
 *   warning: ignoring NAME="TEXT" (want ...)
 */

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace drs::obs {

/** Lower bound of a strictly positive real: any value > 0. */
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/** Text-level parsers: nullopt when @p text breaks the contract. */
std::optional<long long> parseInt(std::string_view text, long long min,
                                  long long max);
std::optional<std::uint64_t> parseUnsigned(std::string_view text);
std::optional<double> parseReal(std::string_view text, double min,
                                double max);

/** The "want" text of a range, e.g. "an integer in [1, 8]". */
std::string wantInt(long long min, long long max);
std::string wantReal(double min, double max);
void warnIgnored(std::string_view name, std::string_view text,
                 std::string_view want);

/** Raw value of environment variable NAME, or nullptr when unset. */
const char *envRaw(const char *name);

/**
 * Read knob NAME through @p parse. Unset leaves *out alone and returns
 * false; malformed also warns with @p want; valid assigns *out and
 * returns true.
 */
template <typename T, typename Parse>
bool
envRead(const char *name, T *out, Parse parse, std::string_view want)
{
    const char *text = envRaw(name);
    const auto value = text ? parse(text) : std::nullopt;
    if (text && !value)
        warnIgnored(name, text, want);
    if (value)
        *out = static_cast<T>(*value);
    return value.has_value();
}

/** Integer knob in [min, max], capped at what T can hold. */
template <std::integral T>
bool
envInt(const char *name, T *out, long long min,
       long long max = std::numeric_limits<long long>::max())
{
    if (std::cmp_less(min, std::numeric_limits<T>::min()))
        min = static_cast<long long>(std::numeric_limits<T>::min());
    if (std::cmp_less(std::numeric_limits<T>::max(), max))
        max = static_cast<long long>(std::numeric_limits<T>::max());
    const auto parse = [&](std::string_view t) {
        return parseInt(t, min, max);
    };
    return envRead(name, out, parse, wantInt(min, max));
}

/** Real knob in [min, max]; pass kPositive as @p min for "> 0". */
template <std::floating_point T>
bool
envReal(const char *name, T *out, double min,
        double max = std::numeric_limits<T>::max())
{
    const auto parse = [&](std::string_view t) {
        return parseReal(t, min, max);
    };
    return envRead(name, out, parse, wantReal(min, max));
}

inline bool
envUnsigned(const char *name, std::uint64_t *out)
{
    return envRead(name, out, parseUnsigned, "an unsigned 64-bit integer");
}

inline bool
envFlag(const char *name, bool *out)
{
    const auto parse = [](std::string_view t) { return parseInt(t, 0, 1); };
    return envRead(name, out, parse, "0 or 1");
}

/** Non-empty text, verbatim (paths, level names). */
inline bool
envText(const char *name, std::string *out)
{
    const auto parse = [](std::string_view t) {
        return t.empty() ? std::nullopt : std::optional<std::string>(t);
    };
    return envRead(name, out, parse, "a non-empty value");
}

} // namespace drs::obs
