/**
 * @file
 * Structured error propagation for hot library code.
 *
 * The logging macros (mmgpu_panic/mmgpu_fatal) are right for
 * programmer errors and unusable configurations, but a sweep service
 * cannot afford one poisoned point killing a thousand-point batch.
 * Library code on the sweep hot path therefore reports recoverable
 * failures as Result<T> values: the harness isolates them per point,
 * reports them, and keeps the batch going. Conventions are spelled
 * out in DESIGN.md "Fault model & degraded modes".
 */

#ifndef MMGPU_COMMON_RESULT_HH
#define MMGPU_COMMON_RESULT_HH

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace mmgpu
{

/** Coarse failure category; the message carries the detail. */
enum class ErrCode : std::uint8_t
{
    Config,        //!< invalid configuration / inputs
    Io,            //!< file-system or serialization failure
    Parse,         //!< malformed persisted data
    Timeout,       //!< no answer within the caller's deadline
                   //!< (client side: ServeClient's recv timeout)
    InjectedFault, //!< a FaultPlan deliberately failed the point
    Internal,      //!< invariant violation reported instead of abort
    Unavailable,   //!< transient capacity loss (shard crash mid-job,
                   //!< restart in progress); safe to retry
    Poisoned,      //!< work quarantined after repeatedly killing its
                   //!< shard; do NOT retry — the input is at fault
};

/** @return stable lower-case name ("config", "timeout", ...). */
inline const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::Config:
        return "config";
      case ErrCode::Io:
        return "io";
      case ErrCode::Parse:
        return "parse";
      case ErrCode::Timeout:
        return "timeout";
      case ErrCode::InjectedFault:
        return "injected-fault";
      case ErrCode::Internal:
        return "internal";
      case ErrCode::Unavailable:
        return "unavailable";
      case ErrCode::Poisoned:
        return "poisoned";
      default:
        return "unknown";
    }
}

/** One structured failure: category plus human-actionable message. */
struct SimError
{
    ErrCode code = ErrCode::Internal;
    std::string message;

    static SimError
    config(std::string message)
    {
        return {ErrCode::Config, std::move(message)};
    }

    static SimError
    io(std::string message)
    {
        return {ErrCode::Io, std::move(message)};
    }

    static SimError
    parse(std::string message)
    {
        return {ErrCode::Parse, std::move(message)};
    }

    static SimError
    timeout(std::string message)
    {
        return {ErrCode::Timeout, std::move(message)};
    }

    static SimError
    injectedFault(std::string message)
    {
        return {ErrCode::InjectedFault, std::move(message)};
    }

    static SimError
    internal(std::string message)
    {
        return {ErrCode::Internal, std::move(message)};
    }

    static SimError
    unavailable(std::string message)
    {
        return {ErrCode::Unavailable, std::move(message)};
    }

    static SimError
    poisoned(std::string message)
    {
        return {ErrCode::Poisoned, std::move(message)};
    }

    /** "timeout: no response within 2000 ms" style rendering. */
    std::string
    describe() const
    {
        return std::string(errCodeName(code)) + ": " + message;
    }
};

/**
 * Either a value or a SimError. Deliberately minimal: ok()/value()/
 * error() and valueOr(). Accessing the wrong alternative is a
 * programmer error and panics (it does not silently default).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : state(std::move(value)) {}
    Result(SimError error) : state(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(state); }

    T &
    value()
    {
        mmgpu_assert(ok(), "value() on an error Result");
        return std::get<T>(state);
    }

    const T &
    value() const
    {
        mmgpu_assert(ok(), "value() on an error Result");
        return std::get<T>(state);
    }

    const SimError &
    error() const
    {
        mmgpu_assert(!ok(), "error() on an ok Result");
        return std::get<SimError>(state);
    }

    T
    valueOr(T fallback) const
    {
        return ok() ? std::get<T>(state) : std::move(fallback);
    }

  private:
    std::variant<T, SimError> state;
};

/** Result<void>: success carries no payload. */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(SimError error) : error_(std::move(error)), ok_(false) {}

    /** Named constructor for explicit success. */
    static Result
    success()
    {
        return Result();
    }

    bool ok() const { return ok_; }

    const SimError &
    error() const
    {
        mmgpu_assert(!ok_, "error() on an ok Result");
        return error_;
    }

  private:
    SimError error_;
    bool ok_ = true;
};

} // namespace mmgpu

#endif // MMGPU_COMMON_RESULT_HH
