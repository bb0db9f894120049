#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace clustersim {

namespace {

/** Depth of live ScopedPanicRethrow scopes on this thread. */
thread_local int panicRethrowDepth = 0;

} // namespace

ScopedPanicRethrow::ScopedPanicRethrow()
{
    panicRethrowDepth++;
}

ScopedPanicRethrow::~ScopedPanicRethrow()
{
    panicRethrowDepth--;
}

namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    if (panicRethrowDepth > 0)
        throw SimError(msg);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace clustersim
