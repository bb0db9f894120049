/**
 * @file
 * gem5-style error and status reporting helpers.
 *
 * fatal()  -- unrecoverable *user* error (bad configuration, bad
 *             arguments); throws SimError so library embedders can catch.
 * panic()  -- unrecoverable *simulator* bug; aborts the process.
 * warn()   -- questionable-but-survivable condition, printed to stderr.
 * inform() -- status message, printed to stderr.
 */

#ifndef CLUSTERSIM_COMMON_LOGGING_HH
#define CLUSTERSIM_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace clustersim {

/** Exception thrown by fatal(): a user-caused, unrecoverable error. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort on a user-caused error: throws SimError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw SimError(detail::concat(std::forward<Args>(args)...));
}

/**
 * While alive, CSIM_PANIC / panicImpl on *this thread* throws SimError
 * instead of aborting the process.
 *
 * A panic is still a bug, but a resident server must not let one wedged
 * simulation point take down every other client's jobs: the sweep
 * scheduler wraps each point in this scope, catches the SimError, and
 * reports the point as failed in-stream. Scopes nest; the default
 * (abort) behaviour is restored when the outermost scope dies.
 */
class ScopedPanicRethrow
{
  public:
    ScopedPanicRethrow();
    ~ScopedPanicRethrow();
    ScopedPanicRethrow(const ScopedPanicRethrow &) = delete;
    ScopedPanicRethrow &operator=(const ScopedPanicRethrow &) = delete;
};

/** Print a warning to stderr; simulation continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a status message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Abort on an internal invariant violation (simulator bug). */
#define CSIM_PANIC(...)                                                     \
    ::clustersim::detail::panicImpl(__FILE__, __LINE__,                     \
        ::clustersim::detail::concat(__VA_ARGS__))

/** Cheap always-on invariant check used on non-hot paths. */
#define CSIM_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            CSIM_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);      \
        }                                                                   \
    } while (0)

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_LOGGING_HH
