#include "harness/run_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fields.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/wallclock.hh"

namespace mmgpu::harness
{

namespace
{

std::string
keyName(std::uint64_t key)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, key);
    return buffer;
}

bool
parseKeyName(const std::string &name, std::uint64_t &key)
{
    if (name.size() != 16)
        return false;
    char *end = nullptr;
    key = std::strtoull(name.c_str(), &end, 16);
    return end == name.c_str() + name.size();
}

/** fsync the journal every this many appends; in between, write()
 *  into the page cache is enough to survive process death. */
constexpr std::uint64_t walSyncBatch = 32;

/** runs.json -> runs.wal (or append .wal to unconventional paths). */
std::string
walPathFor(const std::string &path)
{
    const std::string ext = ".json";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
        return path.substr(0, path.size() - ext.size()) + ".wal";
    return path + ".wal";
}

} // namespace

std::uint64_t
calibrationFingerprint(const joule::CalibrationResult &calib)
{
    Fnv1a hash(runCacheSchemaVersion);
    for (double epi : calib.table.epi)
        hash.add(epi);
    for (double ept : calib.table.ept)
        hash.add(ept);
    hash.add(calib.constPower);
    hash.add(calib.stallEnergy);
    hash.add(calib.converged);
    return hash.digest();
}

std::uint64_t
runFingerprint(const sim::GpuConfig &config,
               const trace::KernelProfile &profile,
               double link_energy_scale, double const_growth_override,
               std::uint64_t calib_fingerprint)
{
    Fnv1a hash(runCacheSchemaVersion);
    hash.add(calib_fingerprint);
    hash.add(link_energy_scale);
    hash.add(const_growth_override);
    hashFields(hash, config);
    hashFields(hash, profile);
    return hash.digest();
}

RunCache::RunCache(std::string path)
    : path_(std::move(path)), walPath_(walPathFor(path_))
{
    const char *wal = std::getenv("MMGPU_CACHE_WAL");
    walEnabled_ = !(wal != nullptr && std::string(wal) == "0");
    std::lock_guard<std::mutex> lock(mutex_);
    loadLocked();
    replayWalLocked();
}

RunCache::~RunCache()
{
    stopAutoFlush();
    if (walFd_ >= 0)
        ::close(walFd_);
}

void
RunCache::startAutoFlush(double seconds)
{
    if (seconds <= 0.0)
        return;
    flushPeriodMs_.store(
        static_cast<std::int64_t>(seconds * 1000.0),
        std::memory_order_release);
    if (flusher_.joinable())
        return; // already running; it picks up the new period
    flusherStop_.store(false, std::memory_order_release);
    flusher_ = std::thread([this] {
        std::int64_t last = wallclock::nowMs();
        while (!flusherStop_.load(std::memory_order_acquire)) {
            wallclock::sleepMs(20);
            const std::int64_t period =
                flushPeriodMs_.load(std::memory_order_acquire);
            if (wallclock::nowMs() - last < period)
                continue;
            // flush() is a no-op unless inserts happened; the
            // counter still ticks so tests can await a pass.
            flush();
            autoFlushes_.fetch_add(1, std::memory_order_relaxed);
            last = wallclock::nowMs();
        }
    });
}

void
RunCache::stopAutoFlush()
{
    if (!flusher_.joinable())
        return;
    flusherStop_.store(true, std::memory_order_release);
    flusher_.join();
    // One final pass so an orderly shutdown never leans on journal
    // replay: the snapshot lands atomically and the WAL truncates.
    flush();
}

double
RunCache::autoFlushSecondsFromEnv()
{
    const char *text = std::getenv("MMGPU_CACHE_FLUSH_SEC");
    if (text == nullptr || *text == '\0')
        return 0.0;
    char *end = nullptr;
    double seconds = std::strtod(text, &end);
    if (end == text || *end != '\0' || seconds <= 0.0) {
        warn("ignoring malformed MMGPU_CACHE_FLUSH_SEC='", text, "'");
        return 0.0;
    }
    return seconds;
}

void
RunCache::loadLocked()
{
    std::ifstream in(path_, std::ios::binary);
    if (!in.is_open())
        return; // cold cache
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    std::optional<JsonValue> doc = parseJson(text);
    if (!doc || !doc->isObject()) {
        warn("run cache ", path_, " is corrupt; ignoring it");
        return;
    }
    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || !schema->isNumber() ||
        schema->asNumber() !=
            static_cast<double>(runCacheSchemaVersion))
        return; // stale schema: silently recompute
    const JsonValue *entries = doc->find("entries");
    if (entries == nullptr || !entries->isArray()) {
        warn("run cache ", path_, " has no entry table; ignoring it");
        return;
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < entries->size(); ++i) {
        const JsonValue *record = entries->at(i);
        const JsonValue *name =
            record ? record->find("key") : nullptr;
        std::uint64_t key = 0;
        Entry decoded;
        if (name == nullptr || !name->isString() ||
            !parseKeyName(name->asString(), key) ||
            !fieldsFromJson(record, decoded)) {
            ++bad;
            continue;
        }
        entries_.emplace(key, std::move(decoded));
    }
    if (bad > 0)
        warn("run cache ", path_, ": skipped ", bad,
             " undecodable entries");
}

bool
RunCache::lookup(std::uint64_t key, sim::PerfResult &perf,
                 joule::EnergyBreakdown &energy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    perf = it->second.perf;
    energy = it->second.energy;
    return true;
}

void
RunCache::insert(std::uint64_t key, const sim::PerfResult &perf,
                 const joule::EnergyBreakdown &energy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &slot = entries_[key];
    slot = Entry{perf, energy};
    dirty_ = true;
    appendWalLocked(key, slot);
}

void
RunCache::armWalTear(std::uint64_t nth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    walTearAt_ = nth == 0 ? 0 : walAppends_ + nth;
}

void
RunCache::appendWalLocked(std::uint64_t key, const Entry &entry)
{
    if (!walEnabled_)
        return;
    if (walFd_ < 0 && !walOpenFailed_) {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::path target(walPath_);
        if (target.has_parent_path())
            fs::create_directories(target.parent_path(), ec);
        walFd_ = ::open(walPath_.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
        if (walFd_ < 0) {
            walOpenFailed_ = true;
            warn("run cache: cannot open journal ", walPath_,
                 "; inserts are only as durable as the next flush");
        }
    }
    if (walFd_ < 0)
        return;

    JsonValue record = fieldsToJson(entry);
    record.set("key", keyName(key));
    std::string payload = record.dumpCompact();
    Fnv1a sum;
    sum.add(payload);

    // Leading-newline framing: this append terminates any torn tail
    // a previous crash (or injected tear) left behind, confining the
    // damage to that one record.
    std::string line = "\nR " + keyName(sum.digest()) + " " + payload;
    ++walAppends_;
    if (walTearAt_ != 0 && walAppends_ == walTearAt_) {
        line.resize(line.size() / 2); // injected torn write
        walTearAt_ = 0;
    }
    std::size_t off = 0;
    while (off < line.size()) {
        ssize_t n =
            ::write(walFd_, line.data() + off, line.size() - off);
        if (n <= 0) {
            warn("run cache: journal append to ", walPath_,
                 " failed");
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    if (++walUnsynced_ >= walSyncBatch) {
        // Deliberate: the journal IS the durability story — syncing
        // outside mutex_ would let an insert report success before
        // its record is on disk. Batched (1 fsync per walSyncBatch
        // appends) to bound the stall.
        ::fsync(walFd_); // mmgpu-lint: allow(no-blocking-under-lock)
        walUnsynced_ = 0;
    }
}

void
RunCache::replayWalLocked()
{
    if (!walEnabled_)
        return;
    std::ifstream in(walPath_, std::ios::binary);
    if (!in.is_open())
        return; // no journal: clean shutdown or cold cache
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    std::size_t dropped = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string record = text.substr(pos, end - pos);
        pos = end + 1;
        if (record.empty())
            continue;

        // "R <16-hex FNV-1a of payload> <compact JSON payload>"
        bool ok = false;
        std::uint64_t sum = 0;
        if (record.size() > 20 && record[0] == 'R' &&
            record[1] == ' ' && record[18] == ' ' &&
            parseKeyName(record.substr(2, 16), sum)) {
            std::string payload = record.substr(19);
            Fnv1a check;
            check.add(payload);
            if (check.digest() == sum) {
                std::optional<JsonValue> doc = parseJson(payload);
                const JsonValue *name =
                    doc && doc->isObject() ? doc->find("key")
                                           : nullptr;
                std::uint64_t key = 0;
                Entry decoded;
                if (name != nullptr && name->isString() &&
                    parseKeyName(name->asString(), key) &&
                    fieldsFromJson(&*doc, decoded)) {
                    entries_[key] = std::move(decoded); // WAL wins
                    ++walReplayed_;
                    ok = true;
                }
            }
        }
        if (!ok)
            ++dropped;
    }
    if (dropped > 0)
        warn("run cache journal ", walPath_, ": dropped ", dropped,
             " torn or corrupt record(s)");
    if (walReplayed_ > 0)
        dirty_ = true; // fold replayed work into the next snapshot
}

void
RunCache::truncateWalLocked()
{
    if (!walEnabled_)
        return;
    walUnsynced_ = 0;
    if (walFd_ >= 0 && ::ftruncate(walFd_, 0) == 0)
        return;
    std::error_code ec;
    std::filesystem::resize_file(walPath_, 0, ec);
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

bool
RunCache::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dirty_)
        return true;

    // Merge entries a sibling process may have written since load:
    // ours win on key collision (they are newer). The fresh load
    // replays the shared journal too, so truncating it below cannot
    // drop a sibling's not-yet-flushed records.
    {
        RunCache fresh(path_);
        for (auto &[key, entry] : fresh.entries_)
            entries_.emplace(key, std::move(entry));
    }

    JsonValue doc = JsonValue::object();
    doc.set("schema",
            static_cast<unsigned long long>(runCacheSchemaVersion));
    JsonValue entries = JsonValue::array();
    for (const auto &[key, entry] : entries_) {
        JsonValue record = fieldsToJson(entry);
        record.set("key", keyName(key));
        entries.push(std::move(record));
    }
    doc.set("entries", std::move(entries));

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path target(path_);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);
    std::string tmp = path_ + ".tmp";

    // Write + atomic rename, retried with bounded backoff: a
    // transient failure (filesystem pressure, a racing sibling on
    // some platforms) should not lose a sweep's worth of results.
    constexpr unsigned attempts = 3;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            // Deliberate: flush() owns mutex_ for its whole critical
            // section and the backoff is bounded (<= 9 ms total);
            // writers block briefly rather than observe a torn file.
            wallclock::sleepMs(attempt == 2 ? 1 : 8); // mmgpu-lint: allow(no-blocking-under-lock)
        }
        bool wrote = false;
        {
            std::ofstream out(tmp,
                              std::ios::binary | std::ios::trunc);
            if (out.is_open()) {
                doc.write(out);
                out << "\n";
                wrote = out.good();
            }
        }
        if (!wrote)
            continue;
        ec.clear();
        fs::rename(tmp, target, ec);
        if (!ec) {
            dirty_ = false;
            truncateWalLocked(); // snapshot now covers the journal
            return true;
        }
    }
    warn("run cache: flushing ", path_, " failed after ", attempts,
         " attempts");
    return false;
}

RunCache *
RunCache::processCache()
{
    static RunCache *instance = []() -> RunCache * {
        const char *off = std::getenv("MMGPU_NO_CACHE");
        if (off != nullptr && *off != '\0' &&
            std::string(off) != "0")
            return nullptr;
        const char *dir = std::getenv("MMGPU_CACHE_DIR");
        std::string base = (dir != nullptr && *dir != '\0')
                               ? dir
                               : ".mmgpu-cache";
        auto *cache = new RunCache(base + "/runs.json");
        if (double seconds = autoFlushSecondsFromEnv();
            seconds > 0.0)
            cache->startAutoFlush(seconds);
        std::atexit([] {
            if (RunCache *c = processCache()) {
                c->stopAutoFlush();
                c->flush();
            }
        });
        return cache;
    }();
    return instance;
}

} // namespace mmgpu::harness
