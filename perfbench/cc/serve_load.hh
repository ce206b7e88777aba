/**
 * @file
 * Open-loop load generator for serve_mixed.
 *
 * Requests follow a seeded Poisson schedule fixed before the first
 * send; the sender sleeps until each request's due time and never
 * waits for answers, so a slow server cannot slow the offered load
 * (no coordinated omission). Every latency is measured from the due
 * time, not the send time: if the sender itself falls behind, the
 * delay shows up as latency and as generator lag (send - due).
 *
 * A request is *warm* when the generator had already received an
 * answer for its design point before sending it, otherwise *cold* —
 * including duplicates of a point whose first copy is still in
 * flight. Failed and rejected requests count as +infinity latency,
 * i.e. as missing any latency limit.
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "points.hh"
#include "serve/service.hh"

namespace perfbench
{

/** One scheduled request: catalog item and due time (s from start). */
struct ScheduledRequest
{
    double dueS = 0.0;
    std::size_t item = 0;
};

/** A seeded popularity order: element r is the item of rank r. */
std::vector<std::size_t> popularityOrder(std::size_t items,
                                         mmgpu::Rng &rng);

/**
 * @p count Poisson arrivals at @p rate per second over a growing
 * catalog: the item of rank r enters at r / items of the first
 * @p intro_share of the schedule, so first requests for new design
 * points keep arriving instead of all landing in the opening second
 * (0 introduces every item at once). Each request picks among the
 * items entered so far with Zipf(@p exponent) weights by rank. The
 * random draws do not depend on @p rate: the same seed gives the same
 * request sequence, compressed or stretched in time.
 */
std::vector<ScheduledRequest>
zipfSchedule(std::size_t count, double rate,
             const std::vector<std::size_t> &order, double exponent,
             double intro_share, mmgpu::Rng &rng);

/** Open-loop bookkeeping: due/send/done times and warm/cold class. */
class OpenLoopGenerator
{
  public:
    OpenLoopGenerator(std::vector<ScheduledRequest> schedule,
                      std::size_t catalog_size);

    /**
     * Send every request at its due time on the calling thread.
     * @p send returns false when the transport failed (the request
     * then counts as failed).
     */
    void sendAll(const std::function<bool(std::size_t)> &send);

    /** Record the answer to request @p index (any thread). */
    void complete(std::size_t index, bool ok);

    /** Wait until every sent request is answered; false on timeout. */
    bool waitAll(double timeout_s);

    /** Due-time latencies (ms) of warm or cold requests; failed ones
     *  are +infinity. */
    std::vector<double> latenciesMs(bool warm) const;

    /** Send lag behind the due time (ms) of every sent request. */
    std::vector<double> lagsMs() const;

    std::size_t sent() const;
    std::size_t succeeded() const;
    std::size_t failedCount() const;

    /** Offered rate actually realized: sent / span of due times. */
    double offeredRate() const;

    /** Fitted rise of the outstanding-request count over the second
     *  half of the send window (requests). */
    double backlogGrowth() const;

  private:
    /** Seconds since the first send (construction until then). */
    double nowS() const { return secondsSince(epoch_); }

    struct Timing
    {
        double sentS = -1.0;
        double doneS = -1.0;
        bool warm = false;
        bool ok = false;
        std::size_t outstandingAtSend = 0;
    };

    Clock::time_point epoch_;
    std::vector<ScheduledRequest> schedule_;
    std::unique_ptr<std::atomic<bool>[]> answered_; //!< per item
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Timing> timing_;
    std::size_t sentCount_ = 0;
    std::size_t doneCount_ = 0;
};

/** What one rate of the ladder measured. */
struct RungResult
{
    double rate = 0.0;
    double setupS = 0.0;
    std::size_t sent = 0, succeeded = 0, failed = 0, mismatched = 0;
    double offeredRate = 0.0;
    double backlogGrowth = 0.0;
    std::vector<double> warmMs, coldMs, lagMs;
    mmgpu::serve::ServiceStats stats;
    double busyShardFrac = 0.0;
    std::size_t peakQueueDepth = 0;
};

/**
 * Service shape of serve_mixed on a 4-core host: three shards leave a
 * core for the generator, whose sender plus one receiver per
 * connection stay within nproc threads.
 */
constexpr std::size_t serveShards = 3;
constexpr std::size_t serveConnections = 2;

/**
 * Start a fresh SimService (empty memo, empty run cache under
 * @p work_dir) behind a SocketServer, offer @p schedule over AF_UNIX
 * through ServeClient connections, check every answer's bytes
 * against @p golden, and shut everything down.
 */
RungResult runRung(const std::vector<CatalogItem> &catalog,
                   const std::vector<ScheduledRequest> &schedule,
                   double rate, const GoldenTable &golden,
                   const std::string &work_dir,
                   Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
