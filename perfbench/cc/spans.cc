#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "common/json.hh"

namespace perfbench
{

namespace
{

/** This thread's stack of open span indices. */
thread_local std::vector<int> openStack;

std::uint32_t
threadNumber()
{
    static std::mutex mutex;
    static std::map<std::thread::id, std::uint32_t> numbers;
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = numbers.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(numbers.size()));
    return it->second;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

double
selfNs(const std::vector<Span> &spans, std::size_t index)
{
    const Span &parent = spans[index];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const Span &child : spans) {
        if (child.parent != static_cast<int>(index) || child.endNs < 0)
            continue;
        std::int64_t lo = std::max(child.startNs, parent.startNs);
        std::int64_t hi = std::min(child.endNs, parent.endNs);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coverage = 0;
    std::int64_t reach = parent.startNs;
    for (auto [lo, hi] : covered) {
        lo = std::max(lo, reach);
        if (hi > lo) {
            coverage += hi - lo;
            reach = hi;
        }
    }
    return static_cast<double>(parent.endNs - parent.startNs - coverage);
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans)
{
    std::map<std::string, LayerTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].endNs < 0)
            continue;
        LayerTotals &t = totals[layerOf(spans[i].name)];
        t.selfNs += selfNs(spans, i);
        ++t.count;
    }
    return totals;
}

int
Tracer::open(std::string name, std::string id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.id = std::move(id);
    span.parent = openStack.empty() ? -1 : openStack.back();
    span.thread = threadNumber();
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    int index = static_cast<int>(spans_.size() - 1);
    openStack.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    if (index < 0)
        return;
    std::int64_t end = nowNs();
    if (!openStack.empty() && openStack.back() == index)
        openStack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endNs = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::int64_t epoch = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all)
        epoch = std::min(epoch, s.startNs);

    mmgpu::JsonValue events = mmgpu::JsonValue::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (s.endNs < 0)
            continue;
        mmgpu::JsonValue args = mmgpu::JsonValue::object();
        args.set("span", mmgpu::JsonValue(static_cast<double>(i)));
        args.set("parent", mmgpu::JsonValue(static_cast<double>(s.parent)));
        if (!s.id.empty())
            args.set("id", mmgpu::JsonValue(s.id));
        args.set("self_us", mmgpu::JsonValue(selfNs(all, i) / 1e3));
        mmgpu::JsonValue ev = mmgpu::JsonValue::object();
        ev.set("name", mmgpu::JsonValue(s.name));
        ev.set("cat", mmgpu::JsonValue(layerOf(s.name)));
        ev.set("ph", mmgpu::JsonValue(std::string("X")));
        ev.set("ts", mmgpu::JsonValue((s.startNs - epoch) / 1e3));
        ev.set("dur", mmgpu::JsonValue((s.endNs - s.startNs) / 1e3));
        ev.set("pid", mmgpu::JsonValue(1.0));
        ev.set("tid", mmgpu::JsonValue(static_cast<double>(s.thread)));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    mmgpu::JsonValue doc = mmgpu::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", mmgpu::JsonValue(std::string("ms")));
    std::ofstream out(path);
    out << doc.dumpCompact() << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
