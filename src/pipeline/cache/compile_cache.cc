#include "pipeline/cache/compile_cache.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "mrt/mrt.hh"
#include "pipeline/cache/serialize.hh"
#include "sched/verifier.hh"

namespace fs = std::filesystem;

namespace cams
{

namespace
{

/** "CCE1" read as a little-endian u32. */
constexpr uint32_t entryMagic = 0x31454343u;

/** Bumped on any change to the entry layout, a nested payload or the
 *  checksum function. v2: hashBytes reads eight bytes per step. */
constexpr uint32_t entryFormatVersion = 2;

/** Salts the options hash so schema changes invalidate old keys. */
constexpr uint64_t optionsSchemaSalt = 0xca5cade100000002ULL;

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf);
}

bool
parseHex16(const std::string &text, uint64_t &out)
{
    if (text.size() != 16)
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 16);
    return end == text.c_str() + 16;
}

/** Reads a whole regular file with one sized read. */
bool
readFileBytes(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat info;
    bool ok = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
    if (ok)
        out.resize(static_cast<size_t>(info.st_size));
    for (size_t done = 0; ok && done < out.size();) {
        const ssize_t got =
            ::read(fd, out.data() + done, out.size() - done);
        if (got > 0)
            done += static_cast<size_t>(got);
        else
            ok = got < 0 && errno == EINTR; // 0: the file shrank
    }
    ::close(fd);
    return ok;
}

uint64_t
hashDouble(double value)
{
    return std::bit_cast<uint64_t>(value);
}

/** A well-formed entry image: the key it was stored under and its
 *  payload's graph and machine images. */
struct ParsedEntry
{
    CacheKey key;
    std::string_view graphBytes;
    std::string_view machineBytes;
};

/**
 * Parses one entry image: the magic, version and checksum header, the
 * stored key, and a payload of graph and machine images and a
 * CompileResult, which is read into @p result. Nullopt when any part
 * is malformed or the checksum disagrees.
 */
std::optional<ParsedEntry>
parseEntry(std::string_view bytes, CompileResult &result)
{
    ParsedEntry entry;
    ByteReader reader(bytes);
    uint32_t magic = 0, version = 0;
    uint64_t checksum = 0;
    std::string_view payload;
    if (!reader.u32(magic) || !reader.u32(version) ||
        !reader.u64(entry.key.loopHash) ||
        !reader.u64(entry.key.machineHash) ||
        !reader.u64(entry.key.optionsHash) || !reader.u64(checksum) ||
        !reader.view(payload) || !reader.atEnd() ||
        magic != entryMagic || version != entryFormatVersion ||
        checksum != hashBytes(payload))
        return std::nullopt;

    ByteReader body(payload);
    if (!body.view(entry.graphBytes) || !body.view(entry.machineBytes) ||
        !readCompileResult(body, result) || !body.atEnd())
        return std::nullopt;
    return entry;
}

/**
 * Full structural validation of one entry image: everything lookup()
 * checks short of the (input-dependent) byte-image gate and the
 * verifier pass, plus the file-name/stored-hash consistency check.
 */
bool
validCacheEntryBytes(const std::string &bytes, uint64_t expectId)
{
    CompileResult result;
    const std::optional<ParsedEntry> entry = parseEntry(bytes, result);
    // A renamed or cross-linked file serves the wrong key: the name
    // must re-derive from the stored hashes.
    if (!entry || entry->key.entryId() != expectId)
        return false;
    Dfg graph;
    MachineDesc machine;
    return readDfg(entry->graphBytes, graph) &&
           readMachine(entry->machineBytes, machine);
}

} // namespace

const char *
cacheModeName(CacheMode mode)
{
    switch (mode) {
        case CacheMode::Off:
            return "off";
        case CacheMode::ReadOnly:
            return "ro";
        case CacheMode::ReadWrite:
            return "rw";
    }
    return "?";
}

bool
parseCacheMode(const std::string &text, CacheMode &out)
{
    if (text == "off") {
        out = CacheMode::Off;
    } else if (text == "ro") {
        out = CacheMode::ReadOnly;
    } else if (text == "rw") {
        out = CacheMode::ReadWrite;
    } else {
        return false;
    }
    return true;
}

uint64_t
CacheKey::entryId() const
{
    uint64_t id = 0xe17e5ee0ULL;
    id = hashCombine(id, loopHash);
    id = hashCombine(id, machineHash);
    id = hashCombine(id, optionsHash);
    return id;
}

std::string
CacheKey::fileName() const
{
    return hex16(entryId()) + ".cce";
}

CacheKey
makeCacheKey(const Dfg &graph, const MachineDesc &machine,
             const CompileOptions &options, bool clustered)
{
    CacheKey key;
    key.loopHash = canonicalLoopHash(graph);
    key.machineHash = hashBytes(packMachine(machine));

    uint64_t oh = optionsSchemaSalt;
    oh = hashCombine(oh, clustered ? 1 : 0);
    oh = hashCombine(oh, static_cast<uint64_t>(options.scheduler));
    oh = hashCombine(oh, static_cast<uint64_t>(options.iiSlack));
    oh = hashCombine(oh, options.verify ? 1 : 0);
    oh = hashCombine(oh, options.fallback ? 1 : 0);
    oh = hashCombine(
        oh, static_cast<uint64_t>(options.exhaustiveFallbackNodes));
    oh = hashCombine(oh, hashDouble(options.timeBudgetMs));
    // Backend selection changes what a "result" even is (a race can
    // tighten the II), and the exact budgets change which answers the
    // arm can reach -- all of it keys the entry.
    oh = hashCombine(oh, static_cast<uint64_t>(options.backend));
    oh = hashCombine(
        oh, static_cast<uint64_t>(options.exact.conflictBudget));
    oh = hashCombine(oh, hashDouble(options.exact.timeBudgetMs));
    oh = hashCombine(oh,
                     static_cast<uint64_t>(options.exact.nodeLimit));
    oh = hashCombine(
        oh, static_cast<uint64_t>(options.exact.horizonLimit));
    oh = hashCombine(oh,
                     static_cast<uint64_t>(options.exact.maxProbes));

    const AssignOptions &a = options.assign;
    oh = hashCombine(oh, static_cast<uint64_t>(a.policy));
    oh = hashCombine(oh, a.iterative ? 1 : 0);
    oh = hashCombine(oh, a.fullHeuristic ? 1 : 0);
    oh = hashCombine(oh, a.useSccAffinity ? 1 : 0);
    oh = hashCombine(oh, a.usePcrPrediction ? 1 : 0);
    oh = hashCombine(oh, a.useSwingOrder ? 1 : 0);
    // Once an option; its slot keeps every existing key unchanged.
    oh = hashCombine(oh, hashDouble(evictionBudgetPerNode));
    oh = hashCombine(oh, static_cast<uint64_t>(a.restartsPerIi));
    // The tenant namespace salt keys the entry, so a salted compile
    // can never serve another namespace's state.
    oh = hashCombine(oh, options.cacheSalt);
    key.optionsHash = oh;
    return key;
}

CompileCache::CompileCache(std::string directory, CacheMode mode)
    : directory_(std::move(directory)), mode_(mode)
{
    if (mode_ == CacheMode::Off)
        return;

    std::error_code ec;
    if (mode_ == CacheMode::ReadWrite)
        fs::create_directories(directory_, ec);
    if (!fs::is_directory(directory_, ec)) {
        openError_ = "cache directory unusable: " + directory_ +
                     (ec ? " (" + ec.message() + ")" : "");
        return;
    }
    ok_ = true;
    scanDirectory();
}

CompileCache::Shard &
CompileCache::shardFor(uint64_t id)
{
    return shards_[mix64(id) % numShards];
}

const CompileCache::Shard &
CompileCache::shardFor(uint64_t id) const
{
    return shards_[mix64(id) % numShards];
}

std::string
CompileCache::entryPath(const CacheKey &key) const
{
    return (fs::path(directory_) / key.fileName()).string();
}

void
CompileCache::scanDirectory()
{
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(directory_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const fs::path &path = entry.path();
        if (path.extension() != ".cce")
            continue;
        uint64_t id = 0;
        if (!parseHex16(path.stem().string(), id))
            continue;
        const uint64_t size = entry.file_size(ec);
        Shard &shard = shardFor(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[id] = size;
    }
}

void
CompileCache::dropEntry(const CacheKey &key, const std::string &path)
{
    const uint64_t id = key.entryId();
    {
        Shard &shard = shardFor(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.erase(id);
    }
    if (mode_ == CacheMode::ReadWrite) {
        std::error_code ec;
        fs::remove(path, ec);
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++totals_.rejects;
}

bool
CompileCache::lookup(const CacheKey &key, const Dfg &graph,
                     const MachineDesc &machine, CompileResult &out)
{
    if (!enabled())
        return false;

    const auto miss = [this] {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++totals_.misses;
        return false;
    };

    const std::string path = entryPath(key);
    std::string bytes;
    if (!readFileBytes(path, bytes))
        return miss();

    CompileResult stored;
    const std::optional<ParsedEntry> entry = parseEntry(bytes, stored);
    if (!entry || entry->key != key) {
        dropEntry(key, path);
        return miss();
    }

    // The hash gate: a canonical-hash collision (or an isomorphic
    // renumbering, which hashes identically on purpose) must not be
    // served someone else's node ids. Exact bytes or nothing.
    if (entry->graphBytes != packDfg(graph) ||
        entry->machineBytes != packMachine(machine))
        return miss();

    // Never trust a stored schedule: re-verify before serving. A
    // stale or corrupted-but-checksummed entry degrades to a miss.
    if (stored.success &&
        !verifySchedule(stored.loop, ResourceModel(machine),
                        stored.schedule)) {
        dropEntry(key, path);
        return miss();
    }

    {
        const uint64_t id = key.entryId();
        Shard &shard = shardFor(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[id] = bytes.size();
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++totals_.hits;
        totals_.bytesRead += static_cast<long>(bytes.size());
    }
    out = std::move(stored);
    return true;
}

void
CompileCache::store(const CacheKey &key, const Dfg &graph,
                    const MachineDesc &machine,
                    const CompileResult &result)
{
    if (mode_ != CacheMode::ReadWrite || !ok_)
        return;

    // Only deterministic outcomes are worth persisting: a served
    // result is already stored, and a timeout depends on the wall
    // clock of this run.
    if (result.fromCache || result.failure == FailureKind::Timeout)
        return;

    const uint64_t id = key.entryId();
    {
        Shard &shard = shardFor(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.entries.count(id))
            return; // first write wins; entries are immutable
    }

    ByteWriter body;
    body.str(packDfg(graph));
    body.str(packMachine(machine));
    writeCompileResult(body, result);
    const std::string payload = body.take();

    ByteWriter entry;
    entry.u32(entryMagic);
    entry.u32(entryFormatVersion);
    entry.u64(key.loopHash);
    entry.u64(key.machineHash);
    entry.u64(key.optionsHash);
    entry.u64(hashBytes(payload));
    entry.str(payload);
    const std::string bytes = entry.take();

    // Tmp-then-rename keeps concurrent readers (and writers racing on
    // the same key) from ever observing a torn entry.
    const uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp =
        (fs::path(directory_) /
         (".tmp-" + hex16(id) + "-" + hex16(tid)))
            .string();
    {
        std::ofstream outFile(tmp, std::ios::binary | std::ios::trunc);
        if (!outFile)
            return;
        outFile.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        if (!outFile.good())
            return;
    }
    std::error_code ec;
    fs::rename(tmp, entryPath(key), ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }

    {
        Shard &shard = shardFor(id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[id] = bytes.size();
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    totals_.bytesWritten += static_cast<long>(bytes.size());
}

ScrubReport
scrubCacheDir(const std::string &directory)
{
    ScrubReport report;
    std::error_code ec;
    if (!fs::is_directory(directory, ec)) {
        report.error = "not a directory: " + directory;
        return report;
    }

    const fs::path corruptDir = fs::path(directory) / "corrupt";
    const auto quarantine = [&](const fs::path &path) {
        std::error_code qec;
        fs::create_directories(corruptDir, qec);
        fs::path target = corruptDir / path.filename();
        // Never clobber evidence from an earlier scrub.
        for (int n = 1; fs::exists(target, qec); ++n)
            target = corruptDir / (path.filename().string() + "." +
                                   std::to_string(n));
        fs::rename(path, target, qec);
        if (qec)
            fs::remove(path, qec); // removal beats serving corruption
        ++report.quarantined;
    };

    // Snapshot the listing first: quarantining mutates the directory.
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(directory, ec)) {
        std::error_code fec;
        if (entry.is_regular_file(fec))
            files.push_back(entry.path());
    }

    for (const fs::path &path : files) {
        const std::string name = path.filename().string();
        if (name.rfind(".tmp-", 0) == 0) {
            // Debris of a writer killed between open and rename.
            std::error_code rec;
            fs::remove(path, rec);
            ++report.tmpRemoved;
            continue;
        }
        if (path.extension() != ".cce")
            continue;
        ++report.entriesScanned;
        uint64_t id = 0;
        std::string bytes;
        if (!parseHex16(path.stem().string(), id) ||
            !readFileBytes(path.string(), bytes) ||
            !validCacheEntryBytes(bytes, id)) {
            quarantine(path);
            continue;
        }
        ++report.entriesOk;
    }

    return report;
}

ScrubReport
CompileCache::scrub()
{
    ScrubReport report;
    if (mode_ != CacheMode::ReadWrite || !ok_) {
        report.error = "scrub requires an open read-write cache";
        return report;
    }
    report = scrubCacheDir(directory_);

    // Rebuild the in-memory view of what survived.
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.clear();
    }
    scanDirectory();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        totals_.quarantined += report.quarantined;
    }
    return report;
}

CompileCache::Totals
CompileCache::totals() const
{
    Totals t;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        t = totals_;
    }
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        t.entries += static_cast<long>(shard.entries.size());
        for (const auto &entry : shard.entries)
            t.bytesOnDisk += static_cast<long>(entry.second);
    }
    return t;
}

void
CompileCache::publish(MetricsRegistry &registry) const
{
    const Totals t = totals();
    std::lock_guard<std::mutex> lock(publishMutex_);
    registry.add("cache.entries", t.entries - published_.entries);
    registry.add("cache.bytes", t.bytesOnDisk - published_.bytesOnDisk);
    registry.add("cache.rejects", t.rejects - published_.rejects);
    registry.add("cache.lookup_hits", t.hits - published_.hits);
    registry.add("cache.lookup_misses", t.misses - published_.misses);
    registry.add("cache.bytes_read", t.bytesRead - published_.bytesRead);
    registry.add("cache.bytes_written",
                 t.bytesWritten - published_.bytesWritten);
    registry.add("cache.quarantined",
                 t.quarantined - published_.quarantined);
    published_ = t;
}

} // namespace cams
