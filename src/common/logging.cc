#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace mmgpu
{

namespace
{

// The harness runs simulations on worker threads (ParallelRunner);
// reporting must neither tear the enable flag nor interleave lines.
std::atomic<bool> informEnabled{true};
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

// Live PanicScopes on this thread; panics throw while it is nonzero.
thread_local unsigned panicScopeDepth = 0;

} // namespace

void
setInformEnabled(bool enabled)
{
    informEnabled.store(enabled, std::memory_order_relaxed);
}

PanicScope::PanicScope()
{
    ++panicScopeDepth;
}

PanicScope::~PanicScope()
{
    --panicScopeDepth;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::cerr << "panic: " << msg << "\n  @ " << file << ":"
                  << line << std::endl;
    }
    if (panicScopeDepth > 0)
        throw Panic{msg};
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(logMutex());
        std::cerr << "fatal: " << msg << "\n  @ " << file << ":"
                  << line << std::endl;
    }
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (!informEnabled.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(logMutex());
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace mmgpu
