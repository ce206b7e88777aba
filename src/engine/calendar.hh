/**
 * @file
 * The event calendar and simulation clock of the engine layer.
 *
 * Every machine in this repository advances by draining one global
 * calendar of timestamped events. The calendar is a binary min-heap
 * on owned storage rather than a std::priority_queue: its heap
 * operations are exactly the ones priority_queue performs (see
 * below), so event ordering is bit-identical, while owning the
 * storage lets a build-once machine keep the backing capacity across
 * launches and runs instead of reallocating it every time.
 *
 * Determinism contract: events are ordered by `when` only. Two
 * events due at the same tick pop in an order determined solely by
 * the heap's structure, which in turn is determined solely by the
 * sequence of schedule()/pop() calls — never by allocation addresses
 * or hashing. Callers that need a specific tie order must encode it
 * in the schedule sequence.
 *
 * Both sides are hand-rolled, step-for-step replicas of libstdc++'s
 * heap algorithms with std::greater, the ones std::push_heap and
 * std::pop_heap (and so the seed's priority_queue) perform:
 *
 *  - push is __push_heap: a hole-based sift-up that moves the parent
 *    down while it compares strictly greater than the new value. The
 *    strict `>` is also the same-tick fast path: an event due no
 *    earlier than its parent (ties included) is placed with one
 *    comparison and no moves.
 *  - pop is __pop_heap: the last element becomes the value to place,
 *    __adjust_heap walks the hole from the root to a leaf always
 *    taking the smaller child — the right one unless it compares
 *    strictly greater than the left, so ties go right — takes a lone
 *    left child at the bottom, then __push_heap sifts the value back
 *    up from that leaf. This bottom-up hole walk places equal keys
 *    differently from a textbook sift-down, so it is copied step for
 *    step: any other walk silently changes tie order.
 *
 * So the heap array after every operation is the one the standard
 * algorithms produce — checked element by element after every
 * operation against (libstdc++'s) std::push_heap/std::pop_heap on a
 * plain vector by the randomized differential test in test_engine —
 * and results no longer depend on which standard library built
 * them.
 *
 * Layout: the heap lives 1-based in 64-byte-aligned storage behind
 * one unused pad element, so heap node i sits at storage index i + 1
 * and the children of storage index s are 2s and 2s + 1. With 16-byte
 * events the two children of a node share a half line and its four
 * grandchildren share one line, which pop() prefetches a level ahead
 * of the walk.
 */

#ifndef MMGPU_ENGINE_CALENDAR_HH
#define MMGPU_ENGINE_CALENDAR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "noc/bandwidth_server.hh"

namespace mmgpu::engine
{

/**
 * One calendar entry: a due time plus a payload index the owning
 * engine interprets (a warp slot or a memory-task pool index,
 * discriminated by isMem).
 */
struct Event
{
    noc::Tick when;
    std::uint32_t index; //!< warp slot or mem task index
    bool isMem;          //!< dispatch lane: memory pipeline vs warp

    bool
    operator>(const Event &other) const
    {
        return when > other.when;
    }
};

static_assert(sizeof(Event) == 16,
              "four events per cache line: the calendar layout "
              "relies on it");

/**
 * The event calendar plus the simulation clock it implies.
 *
 * The clock (now()) is the latest event time ever popped, clamped
 * from below by advanceTo() — which run loops call at each launch
 * start so that a launch with no events still ends no earlier than
 * it began.
 */
class Calendar
{
  public:
    Calendar() : store_(1) {}

    /** Queue an event for @p index's lane at time @p when. */
    void
    schedule(noc::Tick when, std::uint32_t index, bool is_mem)
    {
        store_.push_back({when, index, is_mem});
        siftUp(store_.size() - 1, store_.back());
    }

    /** True when no events are pending. */
    bool empty() const { return store_.size() == 1; }

    /** Number of pending events (diagnostics and audits). */
    std::size_t pending() const { return store_.size() - 1; }

    /** The pending events in heap order (diagnostics and tests);
     *  valid until the next schedule, pop or reset. */
    std::span<const Event>
    heap() const
    {
        return {store_.data() + 1, pending()};
    }

    /**
     * Pop the earliest event and advance the clock to its time.
     * @pre !empty().
     */
    Event
    pop()
    {
        mmgpu_assert(!empty(), "pop from empty calendar");
        Event *s = store_.data();
        const Event event = s[1];
        const Event value = store_.back();
        store_.pop_back();
        const std::size_t n = pending();
        if (n > 0) {
            // __adjust_heap: walk the hole down to a leaf, always
            // moving up the smaller child (the right one unless it is
            // strictly greater), while both children exist...
            std::size_t hole = 1;
            while (2 * hole + 1 <= n) {
                const std::size_t grand = std::min(4 * hole, n);
                __builtin_prefetch(s + grand);
                std::size_t child = 2 * hole + 1;
                child -= s[child].when > s[child - 1].when;
                s[hole] = s[child];
                hole = child;
            }
            // ...take a lone left child at the bottom...
            if (2 * hole == n) {
                s[hole] = s[n];
                hole = n;
            }
            // ...then __push_heap the old last element up from there.
            siftUp(hole, value);
        }
        now_ = std::max(now_, event.when);
        return event;
    }

    /** The simulation clock: latest popped/advanced time. */
    noc::Tick now() const { return now_; }

    /** Clamp the clock from below (start of a launch). */
    void advanceTo(noc::Tick t) { now_ = std::max(now_, t); }

    /** Pre-size the backing storage (capacity survives reset()). */
    void reserve(std::size_t events) { store_.reserve(events + 1); }

    /** Drop all pending events and rewind the clock to zero. */
    void
    reset()
    {
        store_.resize(1);
        now_ = 0.0;
    }

  private:
    /**
     * Place @p value at storage index @p hole by __push_heap's
     * hole-based sift-up (the parent of storage index s is s / 2).
     * The first comparison doubles as the fast path: events due at
     * or after their parent — the common future-event case and every
     * same-tick tie — cost one comparison and zero moves.
     */
    void
    siftUp(std::size_t hole, Event value)
    {
        Event *s = store_.data();
        while (hole > 1 && s[hole / 2].when > value.when) {
            s[hole] = s[hole / 2];
            hole /= 2;
        }
        s[hole] = value;
    }

    /** Allocator of the 64-byte-aligned heap storage. */
    template <typename T>
    struct LineAlignedAllocator
    {
        using value_type = T;
        static constexpr std::align_val_t alignment{64};

        LineAlignedAllocator() = default;
        template <typename U>
        LineAlignedAllocator(const LineAlignedAllocator<U> &)
        {
        }

        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(
                ::operator new(n * sizeof(T), alignment));
        }

        void
        deallocate(T *p, std::size_t)
        {
            ::operator delete(p, alignment);
        }

        template <typename U>
        bool
        operator==(const LineAlignedAllocator<U> &) const
        {
            return true;
        }
    };

    /** store_[0] is padding; the heap is store_[1..pending()]. */
    std::vector<Event, LineAlignedAllocator<Event>> store_;
    noc::Tick now_ = 0.0;
};

} // namespace mmgpu::engine

#endif // MMGPU_ENGINE_CALENDAR_HH
