/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity contract (mirrors gem5's logging.hh):
 *  - panic():  an internal invariant was violated — a framework bug.
 *              Aborts so a debugger/core dump can catch it, unless
 *              the thread is inside a PanicScope (then it throws).
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, impossible parameters). Exits(1).
 *  - warn():   something works, but not as well as it should.
 *  - inform(): plain status for the user.
 */

#ifndef MMGPU_COMMON_LOGGING_HH
#define MMGPU_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace mmgpu
{

namespace detail
{

/** Report an internal bug: throws Panic inside a PanicScope, else
 *  calls std::abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate with a user-error message; calls std::exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a warning to stderr. */
void warnImpl(const std::string &msg);

/** Emit an informational message to stderr. */
void informImpl(const std::string &msg);

/** Fold a variadic pack into one string via operator<<. */
template <typename... Args>
std::string
fold(Args &&...args)
{
    std::ostringstream os;
    // void-cast: an empty pack folds to plain `os`, which -Wall
    // flags as a statement with no effect.
    static_cast<void>((os << ... << args));
    return os.str();
}

} // namespace detail

/** Report an internal invariant violation and abort (or throw Panic
 *  inside a PanicScope). */
template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line,
                      detail::fold(std::forward<Args>(args)...));
}

/** Report an unrecoverable user/configuration error and exit. */
template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line,
                      detail::fold(std::forward<Args>(args)...));
}

/** Report a recoverable anomaly. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::fold(std::forward<Args>(args)...));
}

/** Report simulation status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::fold(std::forward<Args>(args)...));
}

/** Toggle inform() output (benches silence it for clean tables). */
void setInformEnabled(bool enabled);

/** What panic() throws inside a PanicScope. */
struct Panic
{
    std::string message;
};

/**
 * Supervised scope: while one is live on the calling thread, panic()
 * throws Panic instead of aborting, so the frames between the panic
 * and the catch unwind normally (destructors run, lock guards
 * release). Construct it inside the `try` whose handler catches
 * `const Panic &`:
 *
 *     try {
 *         PanicScope supervised;
 *         ... work that may panic ...
 *     } catch (const Panic &panic) {
 *         ... turn panic.message into an error ...
 *     }
 *
 * Scopes nest; panics on threads with no live scope still abort, so
 * the debugger/core-dump contract holds everywhere else.
 */
class PanicScope
{
  public:
    PanicScope();
    ~PanicScope();

    PanicScope(const PanicScope &) = delete;
    PanicScope &operator=(const PanicScope &) = delete;
};

} // namespace mmgpu

#define mmgpu_panic(...) ::mmgpu::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define mmgpu_fatal(...) ::mmgpu::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an invariant that indicates a framework bug when violated. */
#define mmgpu_assert(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mmgpu::panicAt(__FILE__, __LINE__, "assertion failed: ",    \
                             #cond, " ", ##__VA_ARGS__);                  \
        }                                                                 \
    } while (0)

#endif // MMGPU_COMMON_LOGGING_HH
