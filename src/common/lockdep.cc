/**
 * @file
 * Lockdep registry: the global lock-order graph behind sync::Mutex.
 *
 * Data structures (all guarded by the registry's own plain
 * std::mutex — deliberately NOT a sync::Mutex, the validator must
 * never instrument itself):
 *
 *   edges     adjacency: id -> set of ids acquired after it while it
 *             was held. Deterministic containers (ids are monotonic
 *             construction order) so cycle reports replay stably.
 *   reported  edges already warned about at level 1 (warn once).
 *
 * Each thread additionally keeps:
 *
 *   held      its acquisition stack (ids in acquisition order)
 *   seen      edges this thread has already published — the fast
 *             path: a (prev, next) pair found here skips the global
 *             mutex entirely, so steady-state locking costs one
 *             thread-local set lookup.
 *
 * Cycle check: before inserting edge a->b, walk the existing graph
 * from b; reaching a means some other path already orders b before
 * a, i.e. the new edge closes a cycle. The offending edge is NOT
 * inserted (the graph stays acyclic, so one bug reports once per
 * thread-cache miss rather than corrupting later checks), and the
 * violation reports per contract level: panic at >= 2, warn + count
 * at 1.
 */

#include "common/lockdep.hh"

#if MMGPU_CONTRACT_LEVEL >= 1

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/thread_safety.hh"

namespace mmgpu::sync
{

namespace
{

struct Registry
{
    std::mutex mutex;
    std::map<std::uint32_t, std::set<std::uint32_t>> edges
        MMGPU_GUARDED_BY(mutex);
    std::set<std::pair<std::uint32_t, std::uint32_t>> reported
        MMGPU_GUARDED_BY(mutex);
};

/** Leaked: mutexes (thread-local caches, static singletons) may
 *  unlock during process teardown after statics are destroyed. */
Registry &
registry()
{
    static Registry *instance = new Registry;
    return *instance;
}

std::atomic<std::uint32_t> nextId{1};
std::atomic<std::uint64_t> cycles{0};
std::atomic<std::uint64_t> generation{0};

struct ThreadState
{
    std::vector<std::uint32_t> held;
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    std::uint64_t seenGeneration = 0;
};

ThreadState &
threadState()
{
    thread_local ThreadState state;
    return state;
}

/** DFS: is @p to reachable from @p from in the current graph? */
bool
reaches(const Registry &reg, std::uint32_t from, std::uint32_t to)
    MMGPU_REQUIRES(reg.mutex)
{
    std::vector<std::uint32_t> stack{from};
    std::set<std::uint32_t> visited;
    while (!stack.empty()) {
        const std::uint32_t at = stack.back();
        stack.pop_back();
        if (at == to)
            return true;
        if (!visited.insert(at).second)
            continue;
        auto it = reg.edges.find(at);
        if (it == reg.edges.end())
            continue;
        for (std::uint32_t next : it->second)
            stack.push_back(next);
    }
    return false;
}

/** One path to -> ... -> from proving the cycle, for the report;
 *  the path exists by construction (reaches() just returned true). */
std::string
describeCycle(const Registry &reg, std::uint32_t from,
              std::uint32_t to) MMGPU_REQUIRES(reg.mutex)
{
    std::map<std::uint32_t, std::uint32_t> parent;
    std::vector<std::uint32_t> stack{to};
    parent[to] = to;
    while (!stack.empty()) {
        const std::uint32_t at = stack.back();
        stack.pop_back();
        if (at == from)
            break;
        auto it = reg.edges.find(at);
        if (it == reg.edges.end())
            continue;
        for (std::uint32_t next : it->second) {
            if (parent.emplace(next, at).second)
                stack.push_back(next);
        }
    }
    // parent[] chains from -> ... -> to (each node points at its DFS
    // discoverer, and edges run discoverer -> node); replay it
    // backwards so the report reads in acquisition order.
    std::vector<std::uint32_t> chain;
    for (std::uint32_t at = from; at != to;) {
        auto it = parent.find(at);
        if (it == parent.end() || it->second == at)
            break; // defensive: report what we have
        chain.push_back(at);
        at = it->second;
    }
    std::ostringstream os;
    os << "mutex#" << from << " -> mutex#" << to
       << " closes the cycle: mutex#" << to;
    for (std::size_t i = chain.size(); i-- > 0;)
        os << " -> mutex#" << chain[i];
    os << " -> mutex#" << to;
    return os.str();
}

void
recordEdge(std::uint32_t prev, std::uint32_t id)
{
    std::string cycle;
    bool warnOnce = false;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        auto it = reg.edges.find(prev);
        if (it != reg.edges.end() && it->second.count(id))
            return; // another thread published it first
        if (!reaches(reg, id, prev)) {
            reg.edges[prev].insert(id);
            return;
        }
        // Cycle: the offending edge is NOT inserted, so the graph
        // stays acyclic and later checks stay sound.
        cycles.fetch_add(1, std::memory_order_relaxed);
        cycle = describeCycle(reg, prev, id);
        warnOnce = reg.reported.emplace(prev, id).second;
    }
    // Report outside the registry lock: warn() and mmgpu_panic take
    // the log mutex and write to stderr, which the registry lock,
    // taken on every first-seen lock pair, should not wait on.
    if (contract::auditsEnabled) {
        mmgpu_panic("lockdep: lock-order inversion — acquiring ",
                    cycle);
    }
    if (warnOnce)
        warn("lockdep: lock-order inversion — acquiring ", cycle,
             " (level 1: counted, not fatal)");
}

} // namespace

namespace detail
{

std::uint32_t
lockdepRegister()
{
    return nextId.fetch_add(1, std::memory_order_relaxed);
}

void
lockdepUnregister(std::uint32_t id)
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.edges.erase(id);
    for (auto &[from, to] : reg.edges)
        to.erase(id);
}

void
lockdepAcquired(std::uint32_t id)
{
    ThreadState &state = threadState();
    const std::uint64_t gen =
        generation.load(std::memory_order_acquire);
    if (state.seenGeneration != gen) {
        state.seen.clear(); // lockdepReset() invalidated the cache
        state.seenGeneration = gen;
    }
    if (!state.held.empty()) {
        const std::uint32_t prev = state.held.back();
        if (prev != id && state.seen.emplace(prev, id).second)
            recordEdge(prev, id);
    }
    state.held.push_back(id);
}

void
lockdepAcquiredNoOrder(std::uint32_t id)
{
    threadState().held.push_back(id);
}

void
lockdepReleased(std::uint32_t id)
{
    // Remove the most recent occurrence, not necessarily the top:
    // unlock order is not required to mirror lock order
    // (std::unique_lock::unlock(), scoped early releases).
    std::vector<std::uint32_t> &held = threadState().held;
    for (std::size_t i = held.size(); i-- > 0;) {
        if (held[i] == id) {
            held.erase(held.begin() +
                       static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

} // namespace detail

std::uint64_t
lockdepCycleCount()
{
    return cycles.load(std::memory_order_relaxed);
}

void
lockdepReset()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.edges.clear();
    reg.reported.clear();
    cycles.store(0, std::memory_order_relaxed);
    // Thread-local caches cannot be cleared from here; bump the
    // generation so every thread drops its cache on next use.
    generation.fetch_add(1, std::memory_order_acq_rel);
}

} // namespace mmgpu::sync

#else // MMGPU_CONTRACT_LEVEL == 0

namespace mmgpu::sync
{

std::uint64_t
lockdepCycleCount()
{
    return 0;
}

void
lockdepReset()
{
}

} // namespace mmgpu::sync

#endif
