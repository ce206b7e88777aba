/**
 * @file
 * Client side of the mmgpu_serve socket protocol.
 *
 * A thin blocking connection: connect to the daemon's unix socket,
 * send request lines, read response lines. Used by the mmgpu_client
 * binary, the service tests, and the serve bench. Each ServeClient
 * is single-threaded (no internal locking); open several clients for
 * concurrent traffic.
 *
 * On top of the raw transport sits call(): a retrying round trip
 * that classifies failures the way the daemon's self-healing layer
 * intends them to be handled —
 *
 *   - "rejected" responses (quota, shedding, breaker open) retry
 *     after the daemon's retry-after-ms hint, or an exponential
 *     backoff when no hint is given;
 *   - "unavailable" errors (a shard crashed mid-job and the work is
 *     being re-run) retry — the daemon already requeued or can
 *     re-admit the work, and dedup attaches the re-ask to any rerun
 *     still in flight;
 *   - broken transport (EPIPE, EOF, injected connection reset)
 *     reconnects and retries — the daemon memoizes results, so the
 *     re-sent request is answered from cache if it already finished;
 *   - "timeout", "poisoned", "config", and "parse" never retry:
 *     poisoned work is quarantined precisely because retrying it
 *     kills shards, a timeout means the caller's own budget is
 *     spent, and the rest are caller mistakes.
 *
 * Backoff jitter draws from a deterministic seeded stream
 * (common/rng.hh), so a soak that replays the same request sequence
 * with the same seed paces identically — chaos runs are comparable
 * across revisions.
 */

#ifndef MMGPU_SERVE_CLIENT_HH
#define MMGPU_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "common/result.hh"
#include "serve/request.hh"

namespace mmgpu::serve
{

/** How call() paces its attempts. */
struct RetryPolicy
{
    /** Attempts in total (first try included). */
    int maxAttempts = 4;

    /** Per-attempt response timeout. */
    std::int64_t perTryTimeoutMs = 60000;

    /** Total budget across attempts and backoff pauses; call()
     *  returns the last result rather than start an attempt it
     *  cannot finish. */
    std::int64_t deadlineMs = 120000;

    /** First backoff pause; doubles per retry up to the cap. */
    std::uint64_t backoffBaseMs = 50;
    std::uint64_t backoffCapMs = 2000;

    /** Seed of the jitter stream (mixed with the request's work
     *  identity, so concurrent clients with distinct seeds do not
     *  thunder in lockstep yet every run is reproducible). */
    std::uint64_t seed = 0;

    /**
     * When > 0, an attempt with no response after this many ms
     * opens a second connection and re-sends the same request (a
     * hedged read); whichever connection answers first wins. Safe
     * because the daemon dedups identical work: the hedge attaches
     * to the in-flight simulation instead of starting another. Only
     * worth it for long study requests; leave 0 for quick runs.
     */
    std::int64_t hedgeAfterMs = 0;
};

/** What a client did across its call()s, for the soak summary. */
struct ClientCounters
{
    std::uint64_t requests = 0;       //!< logical call()s issued
    std::uint64_t retries = 0;        //!< extra attempts made
    std::uint64_t reconnects = 0;     //!< transport re-establishments
    std::uint64_t hedgesLaunched = 0; //!< second connections opened
    std::uint64_t hedgesWon = 0;      //!< hedge answered first
    std::uint64_t rejectedQuota = 0;  //!< per-client quota rejects
    std::uint64_t rejectedShed = 0;   //!< overload-shedding rejects
    std::uint64_t rejectedOther = 0;  //!< full queue, shutdown, ...
};

/** One blocking client connection. */
class ServeClient
{
  public:
    ServeClient() = default;

    /** Closes the connection if open. */
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Connect to the daemon at @p socket_path, retrying for up to
     * @p timeout_ms (the daemon may still be binding). The path is
     * remembered so call() can reconnect after a broken socket.
     */
    Result<void> connect(const std::string &socket_path,
                         std::int64_t timeout_ms = 5000);

    /** True while the connection is usable. */
    bool connected() const { return fd_ >= 0; }

    /** Close the connection (idempotent). */
    void close();

    /** Send one raw line (newline appended). */
    Result<void> sendLine(const std::string &line);

    /**
     * Read one response line, waiting up to @p timeout_ms.
     * Times out as SimError::timeout, EOF as SimError::io.
     */
    Result<std::string> recvLine(std::int64_t timeout_ms = 60000);

    /** sendLine + recvLine + parseResponse, for serial callers. */
    Result<Response> roundTrip(const Request &request,
                               std::int64_t timeout_ms = 60000);

    /**
     * Resilient round trip: retry/backoff/reconnect/hedge per
     * @p policy (see the file comment for the failure taxonomy).
     * Returns the final response or the last non-retryable failure.
     */
    Result<Response> call(const Request &request,
                          const RetryPolicy &policy = {});

    /** Running totals across call()s on this client. */
    const ClientCounters &counters() const { return counters_; }

  private:
    /**
     * One attempt: a plain round trip, or a hedged one when the
     * policy enables hedging. A hedge win leaves a stale in-flight
     * response on the primary connection, so the primary is closed
     * (call() reconnects before the next use).
     */
    Result<Response> attemptOnce(const Request &request,
                                 std::int64_t timeout_ms,
                                 const RetryPolicy &policy);

    /**
     * Decide whether @p result warrants another attempt; fills
     * @p wait_ms with the daemon's retry-after hint (0 = none) and
     * closes the connection when the transport is what failed.
     * Counts rejects by reason as a side effect.
     */
    bool shouldRetry(const Result<Response> &result,
                     std::uint64_t &wait_ms);

    int fd_ = -1;
    std::string pending_; //!< bytes read past the last newline
    std::string path_;    //!< remembered for reconnects
    ClientCounters counters_;
};

} // namespace mmgpu::serve

#endif // MMGPU_SERVE_CLIENT_HH
