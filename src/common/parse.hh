/**
 * @file
 * The one strict number parser for values that arrive from outside the
 * program: command-line flags and controller-policy parameters.
 */

#ifndef CLUSTERSIM_COMMON_PARSE_HH
#define CLUSTERSIM_COMMON_PARSE_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace clustersim {

/** The most threads a tool's --threads, --jobs or --workers accepts:
 *  above any host the tools run on, and far below what a typo could
 *  otherwise ask the system for. */
inline constexpr int maxThreadsFlag = 1024;

/**
 * `text` as a T in [0, max], or nullopt. The whole string must be one
 * decimal number: no sign, whitespace, suffix or base prefix, and no
 * overflow. A double also takes a fraction and an exponent, but never
 * inf or nan.
 */
template <class T>
std::optional<T>
parseNumber(std::string_view text, T max = std::numeric_limits<T>::max())
{
    // from_chars skips no whitespace and reads no '+'; '-' is the one
    // sign it takes, and nothing parsed here is negative.
    if (text.empty() || text[0] == '-')
        return std::nullopt;
    T v{};
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || !(v <= max))
        return std::nullopt;
    return v;
}

/** parseNumber() for the value of command-line flag `flag`. A bad
 *  value names the flag and exits with status 2, the tools' usage
 *  error. */
template <class T>
T
flagNumber(const char *flag, const char *text,
           T max = std::numeric_limits<T>::max())
{
    std::optional<T> v = parseNumber<T>(text, max);
    if (!v) {
        std::fprintf(stderr, "%s: invalid value '%s'\n", flag, text);
        std::exit(2);
    }
    return *v;
}

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_PARSE_HH
