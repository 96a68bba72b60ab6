// serve-cache: an in-process CamsServer with 2 workers and a compile
// cache, driven by one ServeClient connection that keeps 8 requests in
// flight (eight callers that each wait for their reply). ~90% of the
// requests ask for a hot set that set-up pre-warms (cache reads), ~10%
// for loops generated fresh and never sent twice (miss and compile),
// so hit and miss counts are fixed by the seed.
//
// The cache lives in the run's output directory, on whatever disk the
// checkout is on. Set-up fills it through a read-write server; the
// timed stream runs against a read-only server on the same directory,
// because creating a cache file on the reference host's ext4 disk
// costs 250-800 us and drifts by 2x within a run, which would make the
// served figures measure the disk. Stores are timed in the traced run
// (cache.store_us).

#include <fcntl.h>
#include <filesystem>
#include <unistd.h>
#include <unordered_set>

#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/serve/client.hh"
#include "pipeline/serve/server.hh"
#include "replay.hh"
#include "sched/verifier.hh"
#include "speed.hh"
#include "support/random.hh"
#include "workload/generator.hh"

namespace camsbench
{

using namespace cams;

namespace
{

constexpr int hotLoops = 400;
constexpr int inFlight = 8;
constexpr int serverWorkers = 2;
/** One request in this many asks for a fresh loop. */
constexpr int freshEvery = 10;
/** Batch-engine threads of the untimed output checks. */
constexpr int checkThreads = 4;
/** Windows the stream's latencies are split into (see Latency). */
constexpr int latencyWindows = 10;
/** Windows of the stream the traced run replays. */
constexpr int replayWindows = 2;
/**
 * Stream length per second of --seconds. The length is fixed by
 * --seconds, so every run does the same work on any host; on the
 * reference host (4 vCPU VM) a run then serves for about --seconds.
 */
constexpr long requestsPerSecond = 16000;
const std::string tenant = "bench";

/** One request of the stream: a hot-set index or a fresh index. */
struct Request
{
    bool fresh;
    int index;
};

std::string
describe(const Request &request)
{
    std::string text = request.fresh ? "fresh loop " : "hot loop ";
    text += std::to_string(request.index);
    return text;
}

/** Inputs, the cache directory and the running server of a set-up. */
struct ServeSetup
{
    MachineDesc machine;
    std::unique_ptr<ResourceModel> model;
    std::vector<Dfg> hot;
    std::vector<Dfg> fresh;
    std::vector<std::string> hotBytes;
    std::vector<std::string> freshBytes;
    std::string machineBytes;
    std::vector<Request> stream;
    std::string cacheRoot;
    std::string socketPath;
    std::unique_ptr<CamsServer> server;
    std::unique_ptr<ServeClient> client;
    /** Options every served compile runs with (the server's). */
    CompileOptions options;
};

/**
 * Generates @p count loops whose cache keys are distinct from each
 * other and from every key already in @p seen, so each one is a
 * guaranteed miss the first time and a guaranteed hit after.
 */
std::vector<Dfg>
distinctLoops(uint64_t seed, uint64_t stream, int count,
              const std::string &prefix, const ServeSetup &setup,
              std::unordered_set<uint64_t> &seen)
{
    std::vector<Dfg> loops;
    loops.reserve(count);
    for (uint64_t i = 0; static_cast<int>(loops.size()) < count; ++i) {
        Dfg loop = generateLoop(mixSeed(seed, stream, i), {},
                                prefix + std::to_string(loops.size()));
        const uint64_t id =
            makeCacheKey(loop, setup.machine, setup.options, true)
                .entryId();
        if (seen.insert(id).second)
            loops.push_back(std::move(loop));
    }
    return loops;
}

/** One Sample per request of a closed-loop run. */
struct Sample
{
    int64_t sentNs = 0;
    int64_t doneNs = 0;
    double queueMs = 0.0;
    double compileMs = 0.0;
    bool fromCache = false;
    bool answered = false;
};

/**
 * Sends every request over the set-up's connection with inFlight
 * outstanding. @p onResult sees each Result after the next request is
 * already on its way, so checking overlaps the server's work.
 */
template <typename OnResult>
void
closedLoop(ServeSetup &setup, const std::vector<Request> &requests,
           std::vector<Sample> &samples, Report &report,
           OnResult &&onResult)
{
    samples.assign(requests.size(), Sample{});
    size_t next = 0;
    size_t done = 0;
    auto send = [&]() {
        if (next >= requests.size())
            return;
        const Request &request = requests[next];
        SubmitMsg msg;
        msg.id = next + 1;
        msg.dfgBytes = request.fresh ? setup.freshBytes[request.index]
                                     : setup.hotBytes[request.index];
        msg.machineBytes = setup.machineBytes;
        std::string error;
        samples[next].sentNs = nowNs();
        if (!setup.client->submit(msg, error))
            report.fail("submit: " + error);
        ++next;
    };
    for (int i = 0; i < inFlight; ++i)
        send();
    while (done < requests.size()) {
        ServerMsg msg;
        std::string error;
        if (!setup.client->readMsg(msg, error)) {
            report.fail("connection lost: " + error);
            return;
        }
        if (msg.type == ServeMsgType::Accepted)
            continue;
        if (msg.id == 0 || msg.id > requests.size() ||
            samples[msg.id - 1].answered) {
            report.fail("protocol: unexpected message for id " +
                        std::to_string(msg.id));
            continue;
        }
        Sample &sample = samples[msg.id - 1];
        sample.doneNs = nowNs();
        sample.answered = true;
        ++done;
        send();
        if (msg.type != ServeMsgType::Result) {
            report.fail(describe(requests[msg.id - 1]) + " answered " +
                        serveMsgTypeName(msg.type) + " " + msg.reason +
                        msg.message);
            continue;
        }
        sample.queueMs = msg.queueMs;
        sample.compileMs = msg.compileMs;
        sample.fromCache = msg.fromCache;
        onResult(requests[msg.id - 1], msg);
    }
}

/** Decodes served result bytes; false (and a failure) when malformed. */
bool
decodeResult(const std::string &bytes, CompileResult &out, Report &report)
{
    ByteReader reader(bytes);
    if (!readCompileResult(reader, out)) {
        report.fail("protocol: malformed result bytes");
        return false;
    }
    return true;
}

/** Starts a server on the set-up's cache and connects to it. */
bool
startServer(ServeSetup &setup, CacheMode mode, Report &report)
{
    ServeConfig config;
    config.socketPath = setup.socketPath;
    config.workers = serverWorkers;
    config.cacheRoot = setup.cacheRoot;
    config.cacheMode = mode;
    setup.server = std::make_unique<CamsServer>(config);
    std::string error;
    if (!setup.server->start(error)) {
        report.fail("server start: " + error);
        return false;
    }
    setup.client = std::make_unique<ServeClient>();
    if (!setup.client->connect(setup.socketPath, tenant, error)) {
        report.fail("connect: " + error);
        return false;
    }
    return true;
}

void
stopServer(ServeSetup &setup)
{
    if (setup.client)
        setup.client->close();
    if (setup.server)
        setup.server->stop();
    setup.client.reset();
    setup.server.reset();
}

/**
 * Commits the filesystem holding @p dir (syncfs), so journal work for
 * earlier runs' deleted cache files does not land in this run's timed
 * phase, nor this run's in the next one's.
 */
void
flushFilesystem(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::syncfs(fd);
    ::close(fd);
}

/**
 * One set-up: the seeded inputs, a new cache directory, a read-write
 * server that pre-warms the hot set (each hot loop must miss and be
 * stored), then the read-only server and connection the timed stream
 * uses.
 */
std::unique_ptr<ServeSetup>
setUp(const Args &args, int repeat, Report &report, double &genMs)
{
    auto setup = std::make_unique<ServeSetup>();
    setup->machine = busedGpMachine(2, 2, 1);
    setup->model = std::make_unique<ResourceModel>(setup->machine);
    const ServeConfig defaults;
    setup->options = defaults.baseOptions;
    setup->options.timeBudgetMs = defaults.compileBudgetMs;

    const int64_t gen_start = nowNs();
    const long requests = requestsPerSecond * args.seconds;
    const int fresh_count = static_cast<int>(requests / freshEvery);
    std::unordered_set<uint64_t> seen;
    setup->hot = distinctLoops(args.seed, 1, hotLoops, "hot", *setup, seen);
    setup->fresh =
        distinctLoops(args.seed, 2, fresh_count, "fresh", *setup, seen);
    for (const Dfg &loop : setup->hot)
        setup->hotBytes.push_back(packDfg(loop));
    for (const Dfg &loop : setup->fresh)
        setup->freshBytes.push_back(packDfg(loop));
    setup->machineBytes = packMachine(setup->machine);
    Rng rng(mixSeed(args.seed, 3, 0));
    setup->stream.reserve(requests);
    for (int block = 0; block < fresh_count; ++block) {
        const int fresh_slot = rng.uniformInt(0, freshEvery - 1);
        for (int slot = 0; slot < freshEvery; ++slot) {
            if (slot == fresh_slot)
                setup->stream.push_back(Request{true, block});
            else
                setup->stream.push_back(
                    Request{false, rng.uniformInt(0, hotLoops - 1)});
        }
    }
    genMs = static_cast<double>(nowNs() - gen_start) / 1e6;

    setup->cacheRoot =
        args.outDir + "/serve-cache/setup-" + std::to_string(repeat);
    setup->socketPath = args.outDir + "/camsbench.sock";
    std::filesystem::create_directories(setup->cacheRoot);
    if (!startServer(*setup, CacheMode::ReadWrite, report))
        return nullptr;
    std::vector<Request> warm;
    for (int i = 0; i < hotLoops; ++i)
        warm.push_back(Request{false, i});
    std::vector<Sample> samples;
    closedLoop(*setup, warm, samples, report,
               [&](const Request &request, const ServerMsg &msg) {
                   if (msg.fromCache)
                       report.fail("pre-warm: " + describe(request) +
                                   " was already cached");
               });
    stopServer(*setup);
    if (!startServer(*setup, CacheMode::ReadOnly, report))
        return nullptr;
    return setup;
}

/** What the untraced stream served, for the checks and the replay. */
struct Served
{
    std::vector<Sample> samples;
    /** First raw result image per hot loop (every hit must repeat it). */
    std::vector<std::string> hotBytes;
    /** Canonical image hash per fresh loop. */
    std::vector<size_t> freshDigest;
    long results = 0;
    long hits = 0;
    /** First submit and last result, wall clock. */
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Runs the timed stream, checking each result as it arrives. */
Served
serveStream(ServeSetup &setup, Report &report)
{
    Served served;
    served.hotBytes.resize(setup.hot.size());
    served.freshDigest.resize(setup.fresh.size());
    const int64_t start = nowNs();
    closedLoop(
        setup, setup.stream, served.samples, report,
        [&](const Request &request, const ServerMsg &msg) {
            ++served.results;
            if (msg.fromCache)
                ++served.hits;
            if (msg.fromCache == request.fresh) {
                report.fail(describe(request) +
                            (msg.fromCache ? " hit" : " missed") +
                            " the cache");
            }
            if (!request.fresh) {
                std::string &first = served.hotBytes[request.index];
                if (first.empty())
                    first = msg.resultBytes;
                else if (first != msg.resultBytes)
                    report.fail(describe(request) +
                                " served different bytes");
                return;
            }
            CompileResult result;
            if (!decodeResult(msg.resultBytes, result, report))
                return;
            std::string why;
            if (!result.success) {
                report.fail(describe(request) + ": " +
                            failureKindName(result.failure));
            } else if (!verifySchedule(result.loop, *setup.model,
                                       result.schedule, &why)) {
                report.fail(describe(request) +
                            ": verifier rejects: " + why);
            }
            served.freshDigest[request.index] =
                std::hash<std::string>{}(canonicalResultBytes(result));
        });
    served.startNs = start;
    served.endNs = start;
    for (const Sample &sample : served.samples)
        served.endNs = std::max(served.endNs, sample.doneNs);
    report.attempted += static_cast<long>(setup.stream.size());

    std::string tenths = "loops/s by tenth of the stream:";
    const size_t tenth = served.samples.size() / 10;
    for (size_t t = 0; tenth > 0 && t < 10; ++t) {
        const int64_t from =
            t == 0 ? start : served.samples[t * tenth - 1].doneNs;
        const int64_t to = served.samples[(t + 1) * tenth - 1].doneNs;
        tenths += ' ';
        tenths += std::to_string(static_cast<long>(
            tenth / (static_cast<double>(to - from) / 1e9)));
    }
    report.info(tenths);

    // The stream was built to produce exactly these counts.
    const long expected_hits = static_cast<long>(setup.stream.size()) -
                               static_cast<long>(setup.fresh.size());
    const long server_hits = setup.server->stats().cacheHits;
    report.info("cache: " + std::to_string(served.hits) + " hits, " +
                std::to_string(served.results - served.hits) +
                " misses (designed " + std::to_string(expected_hits) +
                " / " + std::to_string(setup.fresh.size()) +
                "); server counted " + std::to_string(server_hits) +
                " hits");
    if (served.hits != expected_hits || server_hits != expected_hits)
        report.fail("cache hit count differs from the designed stream");
    return served;
}

/** Deterministic figures over the distinct loops served. */
struct StreamFigures
{
    long loops = 0;
    long degraded = 0;
    long iiSum = 0;
    long x0 = 0;
    long optimal = 0;
};

/**
 * The checks that need a direct compile: every distinct loop the
 * server answered must equal compileClustered of the same request
 * with phase times zeroed, and hot images must re-verify. Also
 * compares each loop's II with the unified machine's and its MII.
 */
StreamFigures
checkAgainstDirect(ServeSetup &setup, const Served &served,
                   Report &report)
{
    std::vector<char> hot_requested(setup.hot.size(), 0);
    for (const Request &request : setup.stream) {
        if (!request.fresh)
            hot_requested[request.index] = 1;
    }
    std::vector<Request> distinct;
    for (size_t i = 0; i < setup.hot.size(); ++i) {
        if (hot_requested[i])
            distinct.push_back(Request{false, static_cast<int>(i)});
    }
    for (size_t i = 0; i < setup.fresh.size(); ++i)
        distinct.push_back(Request{true, static_cast<int>(i)});

    // Direct and unified compiles of every distinct loop, in chunks
    // through the batch engine.
    const MachineDesc unified = setup.machine.unifiedEquivalent();
    constexpr size_t chunk = 2048;
    StreamFigures figures;
    for (size_t first = 0; first < distinct.size(); first += chunk) {
        const size_t last = std::min(distinct.size(), first + chunk);
        std::vector<CompileJob> jobs;
        for (size_t k = first; k < last; ++k) {
            const Request &request = distinct[k];
            const Dfg &loop = request.fresh ? setup.fresh[request.index]
                                            : setup.hot[request.index];
            jobs.push_back(CompileJob{&loop, &setup.machine, setup.options,
                                      true});
            jobs.push_back(CompileJob{&loop, &unified, setup.options,
                                      false});
        }
        const BatchOutcome batch = BatchRunner::run(jobs, checkThreads);
        for (size_t k = first; k < last; ++k) {
            const Request &request = distinct[k];
            const CompileResult &direct = batch.results[2 * (k - first)];
            const CompileResult &baseline =
                batch.results[2 * (k - first) + 1];
            bool same;
            if (request.fresh) {
                same = std::hash<std::string>{}(canonicalResultBytes(
                           direct)) == served.freshDigest[request.index];
            } else {
                CompileResult result;
                if (!decodeResult(served.hotBytes[request.index], result,
                                  report))
                    continue;
                std::string why;
                if (!result.success ||
                    !verifySchedule(result.loop, *setup.model,
                                    result.schedule, &why)) {
                    report.fail(describe(request) +
                                " served an unverified schedule " + why);
                }
                same = canonicalResultBytes(direct) ==
                       canonicalResultBytes(result);
            }
            if (!same)
                report.fail(describe(request) +
                            " differs from a direct compile");
            ++figures.loops;
            figures.iiSum += direct.ii;
            // Ladder schedules are pipeline failures (see
            // suite_workloads.cc).
            if (direct.degraded != DegradeLevel::None) {
                ++figures.degraded;
                continue;
            }
            if (direct.ii == baseline.ii)
                ++figures.x0;
            if (direct.ii == direct.mii.mii)
                ++figures.optimal;
        }
    }
    return figures;
}

/**
 * The traced replay of the stream's first replayWindows windows, in
 * process: each request goes through makeCacheKey,
 * CompileCache::lookup and, on a miss, the span-traced compile and
 * CompileCache::store, on the same filesystem (read-write, so
 * cache.store_us is measured); then the client's framing of the same
 * request, encodeSubmit and decodeServerMsg + readCompileResult.
 */
void
tracedReplay(const Args &args, ServeSetup &setup, const Served &served,
             double genMs, Report &report)
{
    Tracer tracer;
    LayerTally tally;
    tally.genMs = genMs;

    Samples queue;
    Samples worker;
    Samples overhead;
    for (const Sample &sample : served.samples) {
        const double rtt_us =
            static_cast<double>(sample.doneNs - sample.sentNs) / 1e3;
        queue.values.push_back(sample.queueMs * 1e3);
        worker.values.push_back(sample.compileMs * 1e3);
        overhead.values.push_back(
            rtt_us - 1e3 * (sample.queueMs + sample.compileMs));
    }
    tally.queueUsP50 = queue.percentile(50.0);
    tally.workerUsP50 = worker.percentile(50.0);
    tally.overheadUsP50 = overhead.percentile(50.0);

    const std::string dir = args.outDir + "/serve-cache/replay";
    CompileCache cache(dir, CacheMode::ReadWrite);
    if (!cache.enabled()) {
        report.fail("replay cache: " + cache.openError());
        return;
    }
    for (const Dfg &loop : setup.hot) {
        cache.store(makeCacheKey(loop, setup.machine, setup.options, true),
                    loop, setup.machine,
                    compileClustered(loop, setup.machine, setup.options));
    }
    const long bytes_before = cache.totals().bytesWritten;

    const size_t requests =
        setup.stream.size() / latencyWindows * replayWindows;
    double traced_ns = 0.0;
    for (size_t r = 0; r < requests; ++r) {
        const Request &request = setup.stream[r];
        const Dfg &loop = request.fresh ? setup.fresh[request.index]
                                        : setup.hot[request.index];
        SpanScope span(&tracer, "request");
        CacheKey key;
        {
            SpanScope key_span(&tracer, "cache_key");
            key = makeCacheKey(loop, setup.machine, setup.options, true);
        }
        CompileResult result;
        bool hit;
        {
            SpanScope lookup(&tracer, "lookup_hit");
            hit = cache.lookup(key, loop, setup.machine, result);
            if (!hit)
                tracer.rename(lookup.id(), "lookup_miss");
        }
        if (hit) {
            ++tally.lookupHits;
        } else {
            ++tally.lookupMisses;
            result = replayCompile(loop, setup.machine, setup.options,
                                   tracer, tally);
            SpanScope store(&tracer, "cache_store");
            cache.store(key, loop, setup.machine, result);
            ++tally.stores;
        }
        traced_ns += static_cast<double>(span.close());

        if (hit == request.fresh)
            report.fail("replay: " + describe(request) +
                        " has another cache outcome than served");
        const std::string canonical = canonicalResultBytes(result);
        bool same;
        if (request.fresh) {
            same = std::hash<std::string>{}(canonical) ==
                   served.freshDigest[request.index];
        } else {
            CompileResult served_result;
            same = decodeResult(served.hotBytes[request.index],
                                served_result, report) &&
                   canonicalResultBytes(served_result) == canonical;
        }
        if (!same)
            report.fail("replay: " + describe(request) +
                        " differs from the served result");

        SubmitMsg msg;
        msg.id = r + 1;
        msg.dfgBytes = request.fresh ? setup.freshBytes[request.index]
                                     : setup.hotBytes[request.index];
        msg.machineBytes = setup.machineBytes;
        int64_t start = nowNs();
        const std::string payload = encodeSubmit(msg);
        tally.encodeNs += static_cast<double>(nowNs() - start);
        ++tally.encodes;
        ByteWriter writer;
        writeCompileResult(writer, result);
        const Sample &sample = served.samples[r];
        const std::string frame =
            encodeResultBytes(r + 1, sample.fromCache, false,
                              sample.queueMs, sample.compileMs,
                              writer.data());
        start = nowNs();
        ServerMsg decoded;
        bool ok = decodeServerMsg(frame, decoded);
        if (ok) {
            CompileResult decoded_result;
            ByteReader reader(decoded.resultBytes);
            ok = readCompileResult(reader, decoded_result);
        }
        tally.decodeNs += static_cast<double>(nowNs() - start);
        ++tally.decodes;
        if (!ok || payload.empty())
            report.fail("replay: a frame does not round-trip");
    }
    tally.bytesStored = cache.totals().bytesWritten - bytes_before;
    tally.loops = static_cast<long>(requests);

    report.info("replayed the first " + std::to_string(requests) +
                " requests; tracing overhead: traced in-process replay " +
                std::to_string(requests / (traced_ns / 1e9)) +
                " loops/s vs untraced served " +
                std::to_string(static_cast<double>(served.samples.size()) /
                               (static_cast<double>(served.endNs -
                                                    served.startNs) /
                                1e9)) +
                " loops/s (the replay skips the socket and the queue, "
                "and stores every miss)");
    reportLayers(report, tracer, tally);
    writeSpans(tracer, args, report);
}

} // namespace

int
runServeCache(const Args &args, Report &report)
{
    const std::string cache_dir = args.outDir + "/serve-cache";
    std::filesystem::remove_all(cache_dir);
    flushFilesystem(args.outDir);

    std::vector<std::pair<int64_t, int64_t>> setup_intervals;
    std::vector<double> gen;
    std::unique_ptr<ServeSetup> setup;
    SpeedProbe setup_probe(allCpus());
    for (int i = 0; i < setupRepeats; ++i) {
        if (setup)
            stopServer(*setup);
        setup.reset();
        const int64_t start = nowNs();
        double gen_ms = 0.0;
        setup = setUp(args, i, report, gen_ms);
        if (!setup)
            return 1;
        setup_intervals.emplace_back(start, nowNs());
        gen.push_back(gen_ms);
    }
    setup_probe.stop();
    std::vector<double> setup_seconds;
    for (const auto &[start, end] : setup_intervals)
        setup_seconds.push_back(setup_probe.referenceNs(start, end) / 1e9);

    // Every CPU serves: the probe samples each of them (see speed.hh).
    SpeedProbe probe(allCpus());
    const Served served = serveStream(*setup, report);
    probe.stop();
    const double rss = peakRssMb();
    stopServer(*setup);
    std::vector<double> latency_us;
    std::vector<double> wall_us;
    for (const Sample &sample : served.samples) {
        latency_us.push_back(
            probe.referenceNs(sample.sentNs, sample.doneNs) / 1e3);
        wall_us.push_back(
            static_cast<double>(sample.doneNs - sample.sentNs) / 1e3);
    }
    const double wall_s =
        static_cast<double>(served.endNs - served.startNs) / 1e9;
    const double reference_s =
        probe.referenceNs(served.startNs, served.endNs) / 1e9;
    const Latency latency = windowedLatency(latency_us, latencyWindows,
                                            report, "reference-time");
    const Latency wall =
        windowedLatency(wall_us, latencyWindows, report, "wall-clock");
    reportSpeed(probe, wall_s, report, "timed phase");
    report.info("wall clock: " +
                std::to_string(static_cast<double>(served.results) /
                               wall_s) +
                " loops/s, p50 " + std::to_string(wall.p50) + " us, p99 " +
                std::to_string(wall.p99) + " us");

    const StreamFigures figures =
        checkAgainstDirect(*setup, served, report);
    report.info("degradation-ladder schedules (not x0, not optimal): " +
                std::to_string(figures.degraded));
    if (args.trace) {
        tracedReplay(args, *setup, served, median(gen), report);
    } else {
        const double loops = static_cast<double>(figures.loops);
        report.metric("setup_s", median(setup_seconds), "s");
        reportSpeed(setup_probe,
                    static_cast<double>(setup_intervals.back().second -
                                        setup_intervals.front().first) /
                        1e9,
                    report, "set-up");
        report.metric("loops_per_s",
                      static_cast<double>(served.results) / reference_s,
                      "loops/s");
        report.metric("latency_us_p50", latency.p50, "us");
        report.metric("latency_us_p99", latency.p99, "us");
        report.metric("ii_sum", static_cast<double>(figures.iiSum),
                      "cycles");
        report.metric("x0_pct", 100.0 * figures.x0 / loops, "%");
        report.metric("optimal_pct", 100.0 * figures.optimal / loops,
                      "%");
        report.metric("peak_rss_mb", rss, "MB");
    }
    std::filesystem::remove_all(cache_dir);
    flushFilesystem(args.outDir);
    return 0;
}

} // namespace camsbench
