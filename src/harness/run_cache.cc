#include "harness/run_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

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
parseKeyName(std::string_view name, std::uint64_t &key)
{
    if (name.size() != 16)
        return false;
    char text[17];
    std::memcpy(text, name.data(), 16);
    text[16] = '\0';
    char *end = nullptr;
    key = std::strtoull(text, &end, 16);
    return end == text + 16;
}

/** The whole of @p path into @p text; false when it cannot be
 *  opened. */
bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.is_open())
        return false;
    text.resize(static_cast<std::size_t>(
        std::max<std::streamoff>(in.tellg(), 0)));
    in.seekg(0);
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return true;
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
    std::string text;
    if (!readFile(path_, text))
        return; // cold cache

    // Entries decode straight into entries_ while the document is
    // read, and are dropped again unless all of it is valid. The
    // verdicts are those of a whole-document parse: the last
    // duplicate member wins, and "schema" — which sorts after
    // "entries" — must still name this version.
    using Kind = JsonReader::Kind;
    JsonReader reader(text);
    bool current = false; // "schema" is runCacheSchemaVersion
    bool table = false;   // "entries" is an array
    std::size_t bad = 0;
    Entry decoded;
    Record<Entry> record{std::string(), decoded};
    std::string_view name;
    const bool object =
        reader.peek() == Kind::Object && reader.beginObject();
    while (object && reader.nextKey(name)) {
        if (name == "schema") {
            double version = -1.0;
            if (reader.peek() == Kind::Number)
                reader.readNumber(version);
            else
                reader.skipValue();
            current =
                version == static_cast<double>(runCacheSchemaVersion);
        } else if (name == "entries") {
            entries_.clear();
            bad = 0;
            table = reader.peek() == Kind::Array;
            if (!table) {
                reader.skipValue();
                continue;
            }
            reader.beginArray();
            while (reader.nextElement()) {
                std::uint64_t key = 0;
                if (fieldsFromJson(reader, record) &&
                    parseKeyName(record.key, key))
                    entries_.try_emplace(key, std::move(decoded));
                else
                    ++bad;
            }
        } else {
            reader.skipValue();
        }
    }
    if (!object || !reader.atEnd()) {
        entries_.clear();
        warn("run cache ", path_, " is corrupt; ignoring it");
        return;
    }
    if (!current) {
        entries_.clear();
        return; // stale schema: silently recompute
    }
    if (!table) {
        entries_.clear();
        warn("run cache ", path_, " has no entry table; ignoring it");
        return;
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

    // "\nR <16-hex FNV-1a of payload> <compact JSON payload>". The
    // leading newline terminates any torn tail a previous crash (or
    // injected tear) left behind, confining the damage to that one
    // record.
    constexpr std::size_t payloadAt = 20;
    std::string line = "\nR 0000000000000000 ";
    JsonWriter writer(line);
    fieldsToJson(writer, Record<const Entry>{keyName(key), entry});
    Fnv1a sum;
    sum.add(std::string_view(line).substr(payloadAt));
    const std::string digest = keyName(sum.digest());
    line.replace(3, digest.size(), digest);
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
    std::string text;
    if (!readFile(walPath_, text))
        return; // no journal: clean shutdown or cold cache

    std::size_t dropped = 0;
    Entry decoded;
    Record<Entry> record{std::string(), decoded};
    std::string_view rest(text);
    while (!rest.empty()) {
        const std::size_t end = std::min(rest.find('\n'), rest.size());
        const std::string_view line = rest.substr(0, end);
        rest.remove_prefix(std::min(end + 1, rest.size()));
        if (line.empty())
            continue;

        // "R <16-hex FNV-1a of payload> <compact JSON payload>"
        bool ok = false;
        std::uint64_t sum = 0;
        if (line.size() > 20 && line[0] == 'R' && line[1] == ' ' &&
            line[18] == ' ' && parseKeyName(line.substr(2, 16), sum)) {
            const std::string_view payload = line.substr(19);
            Fnv1a check;
            check.add(payload);
            JsonReader reader(payload);
            std::uint64_t key = 0;
            if (check.digest() == sum &&
                fieldsFromJson(reader, record) && reader.atEnd() &&
                parseKeyName(record.key, key)) {
                entries_[key] = std::move(decoded); // WAL wins
                ++walReplayed_;
                ok = true;
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

    // {"entries": [records in key order], "schema": N}: members in
    // byte order, like every object the codec writes.
    std::string text;
    JsonWriter writer(text, true);
    writer.beginObject();
    writer.key("entries");
    writer.beginArray();
    for (const auto &[key, entry] : entries_)
        fieldsToJson(writer, Record<const Entry>{keyName(key), entry});
    writer.endArray();
    writer.key("schema");
    writer.number(static_cast<double>(runCacheSchemaVersion));
    writer.endObject();
    text += '\n';

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
                out.write(text.data(),
                          static_cast<std::streamsize>(text.size()));
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
