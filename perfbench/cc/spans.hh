/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * A span is one timed layer call: name ("<layer>.<what>"), start and
 * end on the steady clock, the enclosing span on the same thread, and
 * the point or request it served. Spans stay in memory while the pass
 * runs and are written once at exit as Chrome-trace JSON ("X" complete
 * events, the format the simulator's telemetry exporter also emits),
 * so recording costs one clock read and a vector append per edge.
 *
 * Self time of a span is its duration minus the part of it covered by
 * its children (overlapping children count once); per-layer totals
 * sum self time by the name's layer prefix, so they add up to the
 * traced wall time without double counting.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span
{
    std::string name;
    std::string id;         //!< point or request the call served
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; //!< -1 while open
    int parent = -1;         //!< index of the enclosing span, or -1
    std::uint32_t thread = 0;
};

/** Self time and call count of one layer. */
struct LayerTotals
{
    double selfNs = 0.0;
    std::size_t count = 0;
};

/** "<layer>" of a "<layer>.<what>" span name (whole name if no dot). */
std::string layerOf(const std::string &span_name);

/** Duration of span @p index minus its children's union coverage. */
double selfNs(const std::vector<Span> &spans, std::size_t index);

/** Self time and count summed by layer over closed spans. */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans);

/** Thread-safe recorder; a disabled recorder records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in this thread's innermost open span. */
    int open(std::string name, std::string id = {});

    /** Close span @p index (from open()); -1 is ignored. */
    void close(int index);

    /** RAII open/close. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string id = {})
            : tracer_(tracer),
              index_(tracer.open(std::move(name), std::move(id)))
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome-trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Steady-clock nanoseconds since an arbitrary process epoch. */
std::int64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
