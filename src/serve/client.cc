#include "serve/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/rng.hh"
#include "common/wallclock.hh"

namespace mmgpu::serve
{

namespace
{

/** Short recv slices while a hedged attempt round-robins between
 *  its two connections. */
constexpr std::int64_t hedgePollMs = 20;

/** Budget for opening the hedge's second connection; a hedge that
 *  cannot connect promptly is not worth having. */
constexpr std::int64_t hedgeConnectMs = 1000;

} // namespace

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    pending_.clear();
}

Result<void>
ServeClient::connect(const std::string &socket_path,
                     std::int64_t timeout_ms)
{
    close();
    path_ = socket_path;

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return SimError::config("socket path too long: " +
                                socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    std::int64_t deadline = wallclock::nowMs() + timeout_ms;
    while (true) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return SimError::io(std::string("socket(): ") +
                                std::strerror(errno));
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            fd_ = fd;
            return Result<void>::success();
        }
        int err = errno;
        ::close(fd);
        // ENOENT/ECONNREFUSED while the daemon is still starting.
        if (wallclock::nowMs() >= deadline) {
            return SimError::io("connect(" + socket_path +
                                "): " + std::strerror(err));
        }
        wallclock::sleepMs(20);
    }
}

Result<void>
ServeClient::sendLine(const std::string &line)
{
    if (fd_ < 0)
        return SimError::io("client is not connected");
    std::string framed = line;
    framed.push_back('\n');
    std::size_t written = 0;
    while (written < framed.size()) {
        ssize_t n = ::send(fd_, framed.data() + written,
                           framed.size() - written, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            int err = errno;
            close();
            return SimError::io(std::string("send(): ") +
                                std::strerror(err));
        }
        written += static_cast<std::size_t>(n);
    }
    return Result<void>::success();
}

Result<std::string>
ServeClient::recvLine(std::int64_t timeout_ms)
{
    if (fd_ < 0)
        return SimError::io("client is not connected");
    std::int64_t deadline = wallclock::nowMs() + timeout_ms;
    while (true) {
        std::size_t nl = pending_.find('\n');
        if (nl != std::string::npos) {
            std::string line = pending_.substr(0, nl);
            pending_.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }

        std::int64_t remaining = deadline - wallclock::nowMs();
        if (remaining <= 0)
            return SimError::timeout("no response within " +
                                     std::to_string(timeout_ms) +
                                     " ms");
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        int ready = ::poll(
            &pfd, 1,
            static_cast<int>(std::min<std::int64_t>(remaining, 100)));
        if (ready < 0 && errno != EINTR)
            return SimError::io(std::string("poll(): ") +
                                std::strerror(errno));
        if (ready <= 0)
            continue;

        char buffer[4096];
        ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            close();
            return SimError::io("connection closed by the daemon");
        }
        pending_.append(buffer, static_cast<std::size_t>(n));
    }
}

Result<Response>
ServeClient::roundTrip(const Request &request,
                       std::int64_t timeout_ms)
{
    if (Result<void> sent = sendLine(request.encode()); !sent.ok())
        return sent.error();
    Result<std::string> line = recvLine(timeout_ms);
    if (!line.ok())
        return line.error();
    return parseResponse(line.value());
}

bool
ServeClient::shouldRetry(const Result<Response> &result,
                         std::uint64_t &wait_ms)
{
    wait_ms = 0;
    if (!result.ok()) {
        if (result.error().code == ErrCode::Io) {
            // Broken transport (EPIPE, EOF, injected reset): the
            // connection is already closed by sendLine/recvLine, or
            // must be so the next attempt reconnects cleanly.
            close();
            return true;
        }
        // Timeout: this attempt's budget is spent, and the work may
        // still be running. Parse: the response itself is broken —
        // retrying cannot fix either.
        return false;
    }
    const Response &response = result.value();
    if (response.status == ResponseStatus::Rejected) {
        if (response.message.find("quota") != std::string::npos)
            counters_.rejectedQuota += 1;
        else if (response.message.find("shed") != std::string::npos ||
                 response.message.find("overload") !=
                     std::string::npos)
            counters_.rejectedShed += 1;
        else
            counters_.rejectedOther += 1;
        wait_ms = response.retryAfterMs;
        return true;
    }
    if (response.status == ResponseStatus::Error &&
        response.code == ErrCode::Unavailable)
        return true;
    // Ok, or a terminal error (Poisoned, Config, InjectedFault, ...).
    return false;
}

Result<Response>
ServeClient::attemptOnce(const Request &request,
                         std::int64_t timeout_ms,
                         const RetryPolicy &policy)
{
    if (policy.hedgeAfterMs <= 0)
        return roundTrip(request, timeout_ms);

    if (Result<void> sent = sendLine(request.encode()); !sent.ok())
        return sent.error();

    const std::int64_t deadline = wallclock::nowMs() + timeout_ms;
    std::int64_t hedge_at = wallclock::nowMs() + policy.hedgeAfterMs;
    ServeClient hedge;
    bool hedge_sent = false;

    while (true) {
        if (connected()) {
            Result<std::string> line = recvLine(hedgePollMs);
            if (line.ok())
                return parseResponse(line.value());
            if (line.error().code != ErrCode::Timeout)
                close(); // primary transport died; hedge may still win
        }
        if (hedge_sent && hedge.connected()) {
            Result<std::string> line = hedge.recvLine(hedgePollMs);
            if (line.ok()) {
                counters_.hedgesWon += 1;
                // The primary still owes a response for this request;
                // drop the connection rather than let a stale line
                // answer the next call.
                close();
                return parseResponse(line.value());
            }
            if (line.error().code != ErrCode::Timeout)
                hedge.close();
        }
        if (!connected() && !(hedge_sent && hedge.connected()))
            return SimError::io(
                "both primary and hedge connections failed");

        std::int64_t now = wallclock::nowMs();
        if (now >= deadline) {
            // The request is still in flight on whatever connection
            // survived; a late response must not answer the next
            // call, so drop the primary.
            close();
            return SimError::timeout("no response within " +
                                     std::to_string(timeout_ms) +
                                     " ms (hedged)");
        }
        if (!hedge_sent && connected() && now >= hedge_at) {
            if (hedge.connect(path_, hedgeConnectMs).ok() &&
                hedge.sendLine(request.encode()).ok()) {
                hedge_sent = true;
                counters_.hedgesLaunched += 1;
            } else {
                hedge_at = deadline; // do not try again this attempt
            }
        }
    }
}

Result<Response>
ServeClient::call(const Request &request, const RetryPolicy &policy)
{
    counters_.requests += 1;
    // Jitter stream: deterministic per (seed, work), so reruns pace
    // identically but distinct clients/requests desynchronize.
    Rng jitter(policy.seed ^ request.workIdentity() ^
               0x5e27c11ea7ull);
    const std::int64_t deadline =
        wallclock::nowMs() + policy.deadlineMs;
    std::uint64_t backoff_ms =
        policy.backoffBaseMs > 0 ? policy.backoffBaseMs : 1;
    const std::uint64_t backoff_cap =
        std::max<std::uint64_t>(policy.backoffCapMs, backoff_ms);
    Result<Response> last =
        SimError::internal("retry loop made no attempt");

    int attempts = std::max(policy.maxAttempts, 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (!connected()) {
            if (path_.empty())
                return SimError::io("client was never connected");
            std::int64_t budget = std::min<std::int64_t>(
                deadline - wallclock::nowMs(), hedgeConnectMs);
            if (budget <= 0)
                break;
            Result<void> re = connect(path_, budget);
            if (!re.ok()) {
                last = re.error();
                continue; // transient; backoff below already paid
            }
            counters_.reconnects += 1;
        }

        std::int64_t remaining = deadline - wallclock::nowMs();
        if (remaining <= 0)
            break;
        last = attemptOnce(
            request, std::min(policy.perTryTimeoutMs, remaining),
            policy);

        std::uint64_t hint_ms = 0;
        if (!shouldRetry(last, hint_ms))
            return last;
        if (attempt + 1 >= attempts)
            break;

        std::uint64_t pause =
            backoff_ms + jitter.below(backoff_ms / 2 + 1);
        pause = std::max(pause, hint_ms);
        backoff_ms = std::min(backoff_ms * 2, backoff_cap);
        if (wallclock::nowMs() + static_cast<std::int64_t>(pause) >=
            deadline)
            break;
        counters_.retries += 1;
        wallclock::sleepMs(static_cast<std::int64_t>(pause));
    }
    return last;
}

} // namespace mmgpu::serve
