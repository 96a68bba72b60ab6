#include "pipeline/serve/server.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>

#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "support/logging.hh"
#include "support/time.hh"

namespace cams
{

namespace
{

/**
 * Identity of a Submit's compile-relevant payload, guarding the
 * dedup table against retry-key reuse: a key that comes back with a
 * *different* payload is new work, never a replay.
 */
uint64_t
submitPayloadHash(const SubmitMsg &msg)
{
    return hashCombine(
        hashCombine(hashBytes(msg.dfgBytes),
                    hashBytes(msg.machineBytes)),
        hashCombine(msg.scheduler, msg.clustered ? 1 : 0));
}

} // namespace

std::string
sanitizeTenant(const std::string &tenant)
{
    if (tenant.empty())
        return "default";
    std::string safe;
    safe.reserve(tenant.size());
    for (const char c : tenant) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        safe.push_back(ok ? c : '_');
    }
    return safe;
}

CamsServer::CamsServer(ServeConfig config) : config_(std::move(config))
{
    if (config_.workers < 1)
        config_.workers = 1;
    if (config_.queueCapacity < 1)
        config_.queueCapacity = 1;
    ids_.connections = registry_.counterId("serve.connections");
    ids_.accepted = registry_.counterId("serve.accepted");
    ids_.shedFull = registry_.counterId("serve.shed_full");
    ids_.shedDraining = registry_.counterId("serve.shed_draining");
    ids_.completed = registry_.counterId("serve.completed");
    ids_.compiled = registry_.counterId("serve.compiled");
    ids_.cacheHits = registry_.counterId("serve.cache_hits");
    ids_.deadlineExpired =
        registry_.counterId("serve.deadline_expired");
    ids_.cancelledQueued =
        registry_.counterId("serve.cancelled_queued");
    ids_.cancelledInFlight =
        registry_.counterId("serve.cancelled_in_flight");
    ids_.protocolErrors =
        registry_.counterId("serve.protocol_errors");
    ids_.readTimeouts = registry_.counterId("serve.read_timeouts");
    ids_.watchdogFired = registry_.counterId("serve.watchdog_fired");
    ids_.dedupReplayed = registry_.counterId("serve.dedup_replayed");
    ids_.dedupJoined = registry_.counterId("serve.dedup_joined");
    ids_.dedupMismatch = registry_.counterId("serve.dedup_mismatch");
    ids_.statsPolls = registry_.counterId("serve.stats_polls");
    ids_.queueMs = registry_.histogramId("serve.queue_ms");
    ids_.compileMs = registry_.histogramId("serve.compile_ms");
    ids_.queueDepth = registry_.histogramId("serve.queue_depth");
}

CamsServer::~CamsServer()
{
    stop();
}

bool
CamsServer::start(std::string &error)
{
    if (started_.load()) {
        error = "server already started";
        return false;
    }
    if (config_.scrubOnStart)
        scrubTenantCaches();
    if (!listener_.open(config_.socketPath, error))
        return false;
    workerThreads_.reserve(config_.workers);
    for (int i = 0; i < config_.workers; ++i)
        workerThreads_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    if (config_.watchdogMs > 0.0) {
        watchdogStop_.store(false);
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    }
    startMicros_ = nowMicros();
    started_.store(true);
    return true;
}

void
CamsServer::requestDrain()
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    if (draining_)
        return;
    draining_ = true;
    // Unblocks acceptLoop; already-queued work keeps flowing. The
    // descriptor is closed in stop(), once acceptLoop has returned;
    // shutting down under the lock orders this before that close.
    listener_.shutdown();
    notifyIfDrained();
}

void
CamsServer::waitDrained()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    drainedCv_.wait(lock, [this] {
        return queue_.empty() && inFlight_.empty();
    });
}

void
CamsServer::stop()
{
    if (!started_.load())
        return;
    requestDrain();
    waitDrained();
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &worker : workerThreads_)
        worker.join();
    workerThreads_.clear();
    watchdogStop_.store(true);
    if (watchdogThread_.joinable())
        watchdogThread_.join();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();
    {
        std::unique_lock<std::mutex> lock(connMutex_);
        for (const std::shared_ptr<Conn> &conn : conns_) {
            conn->alive.store(false);
            conn->fd.shutdownBoth();
        }
        readersDone_.wait(lock,
                          [this] { return activeReaders_ == 0; });
        conns_.clear();
    }
    started_.store(false);
}

ServeStats
CamsServer::stats() const
{
    ServeStats stats;
    stats.connections = registry_.counter("serve.connections");
    stats.accepted = registry_.counter("serve.accepted");
    stats.shedFull = registry_.counter("serve.shed_full");
    stats.shedDraining = registry_.counter("serve.shed_draining");
    stats.completed = registry_.counter("serve.completed");
    stats.compiled = registry_.counter("serve.compiled");
    stats.cacheHits = registry_.counter("serve.cache_hits");
    stats.deadlineExpired =
        registry_.counter("serve.deadline_expired");
    stats.cancelledQueued =
        registry_.counter("serve.cancelled_queued");
    stats.cancelledInFlight =
        registry_.counter("serve.cancelled_in_flight");
    stats.protocolErrors =
        registry_.counter("serve.protocol_errors");
    stats.readTimeouts = registry_.counter("serve.read_timeouts");
    stats.watchdogFired = registry_.counter("serve.watchdog_fired");
    stats.dedupReplayed = registry_.counter("serve.dedup_replayed");
    stats.dedupJoined = registry_.counter("serve.dedup_joined");
    stats.dedupMismatch = registry_.counter("serve.dedup_mismatch");
    stats.quarantined =
        registry_.counter("serve.cache_quarantined");
    return stats;
}

std::string
CamsServer::metricsJson() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    for (const auto &[tenant, cache] : tenantCaches_) {
        (void)tenant;
        if (cache && cache->enabled())
            cache->publish(registry_);
    }
    return registry_.toJson();
}

const CamsServer::TenantIds *
CamsServer::tenantIds(const std::string &tenant)
{
    const std::string safe = sanitizeTenant(tenant);
    std::lock_guard<std::mutex> lock(tenantIdsMutex_);
    const auto it = tenantMetricIds_.find(safe);
    if (it != tenantMetricIds_.end())
        return &it->second;
    const std::string prefix = "serve.tenant." + safe + ".";
    TenantIds ids;
    ids.submitted = registry_.counterId(prefix + "submitted");
    ids.completed = registry_.counterId(prefix + "completed");
    ids.shed = registry_.counterId(prefix + "shed");
    ids.cacheHits = registry_.counterId(prefix + "cache_hits");
    return &tenantMetricIds_.emplace(safe, ids).first->second;
}

StatsReplyMsg
CamsServer::statsReply(uint64_t token) const
{
    // Fold the per-tenant cache tallies in first (their own lock),
    // so cache.* counters appear alongside serve.*.
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        for (const auto &[tenant, cache] : tenantCaches_) {
            (void)tenant;
            if (cache && cache->enabled())
                cache->publish(registry_);
        }
    }

    StatsReplyMsg msg;
    msg.token = token;
    msg.uptimeSeconds =
        static_cast<double>(nowMicros() - startMicros_) / 1e6;
    msg.windowSeconds = registry_.windowSeconds();
    msg.workers = static_cast<uint32_t>(config_.workers);
    msg.queueCapacity = static_cast<uint32_t>(config_.queueCapacity);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        msg.queueDepth = static_cast<uint32_t>(queue_.size());
        msg.inFlight = static_cast<uint32_t>(inFlight_.size());
        msg.draining = draining_;
    }

    // Tenant counters travel in the dedicated per-tenant section,
    // not the flat list.
    const auto isTenantCounter = [](const std::string &name) {
        return name.rfind("serve.tenant.", 0) == 0;
    };
    for (const std::string &name : registry_.counterNames()) {
        if (isTenantCounter(name))
            continue;
        StatsCounter counter;
        counter.name = name;
        counter.total = registry_.counter(name);
        counter.last1m = registry_.counterWindow(name, 60.0);
        counter.last5m = registry_.counterWindow(name, 300.0);
        msg.counters.push_back(std::move(counter));
    }
    for (const std::string &name : registry_.histogramNames()) {
        StatsHistogram histogram;
        histogram.name = name;
        histogram.total = registry_.histogram(name);
        histogram.last1m = registry_.histogramWindow(name, 60.0);
        histogram.last5m = registry_.histogramWindow(name, 300.0);
        msg.histograms.push_back(std::move(histogram));
    }
    {
        std::lock_guard<std::mutex> lock(tenantIdsMutex_);
        for (const auto &[tenant, ids] : tenantMetricIds_) {
            (void)ids;
            const std::string prefix = "serve.tenant." + tenant + ".";
            TenantStats stats;
            stats.tenant = tenant;
            stats.submitted =
                registry_.counter(prefix + "submitted");
            stats.completed =
                registry_.counter(prefix + "completed");
            stats.shed = registry_.counter(prefix + "shed");
            stats.cacheHits =
                registry_.counter(prefix + "cache_hits");
            msg.tenants.push_back(std::move(stats));
        }
    }
    return msg;
}

HealthReplyMsg
CamsServer::healthReply(uint64_t token) const
{
    HealthReplyMsg msg;
    msg.token = token;
    msg.version = serveProtoVersion;
    msg.uptimeSeconds =
        static_cast<double>(nowMicros() - startMicros_) / 1e6;
    msg.queueCapacity = static_cast<uint32_t>(config_.queueCapacity);
    std::lock_guard<std::mutex> lock(queueMutex_);
    msg.queueDepth = static_cast<uint32_t>(queue_.size());
    msg.inFlight = static_cast<uint32_t>(inFlight_.size());
    msg.status = draining_ ? "draining" : "ok";
    return msg;
}

void
CamsServer::acceptLoop()
{
    for (;;) {
        std::string error;
        const int fd = listener_.acceptFd(error);
        if (fd < 0)
            return; // listener closed (drain) or fatal accept error
        auto conn = std::make_shared<Conn>();
        conn->fd = SocketFd(fd);
        if (config_.chaos.any()) {
            // Every connection gets its own deterministic coin
            // stream; a reconnecting client sees fresh faults, not a
            // replay of the ones that just killed it.
            ChaosConfig chaos = config_.chaos;
            chaos.seed = hashCombine(config_.chaos.seed, ++connSeq_);
            conn->stream.enableChaos(chaos);
        }
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            // Refuse connections that raced the drain: the reader
            // would shed every submit anyway.
            bool draining;
            {
                std::lock_guard<std::mutex> qlock(queueMutex_);
                draining = draining_;
            }
            if (draining)
                continue; // conn drops; client sees EOF
            conns_.push_back(conn);
            ++activeReaders_;
        }
        std::thread([this, conn] { connectionLoop(conn); }).detach();
    }
}

void
CamsServer::send(Conn &conn, const std::string &payload)
{
    if (!conn.alive.load())
        return;
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    std::string error;
    if (!conn.stream.writeFrame(conn.fd.fd(), payload, error))
        conn.alive.store(false);
}

void
CamsServer::connectionLoop(std::shared_ptr<Conn> conn)
{
    std::string payload;
    std::string error;
    bool cleanEof = false;
    bool timedOut = false;

    // The handshake must come first and must match our version.
    bool handshakeOk = false;
    if (conn->stream.readFrame(conn->fd.fd(), payload,
                               serveMaxFrameBytes,
                               config_.readTimeoutMs, error, &cleanEof,
                               &timedOut)) {
        ClientMsg msg;
        if (!decodeClientMsg(payload, msg) ||
            msg.type != ServeMsgType::Hello) {
            registry_.add(ids_.protocolErrors);
            send(*conn, encodeError(0, "expected hello"));
        } else if (msg.hello.version != serveProtoVersion) {
            registry_.add(ids_.protocolErrors);
            send(*conn,
                 encodeError(0, detail::concat(
                                    "protocol version mismatch: "
                                    "server ",
                                    serveProtoVersion, ", client ",
                                    msg.hello.version)));
        } else {
            conn->tenant = msg.hello.tenant;
            conn->tenantIds = tenantIds(msg.hello.tenant);
            registry_.add(ids_.connections);
            send(*conn,
                 encodeHelloAck(
                     static_cast<uint32_t>(config_.workers),
                     static_cast<uint32_t>(config_.queueCapacity)));
            handshakeOk = true;
        }
    } else if (timedOut) {
        registry_.add(ids_.readTimeouts);
    } else if (!cleanEof) {
        registry_.add(ids_.protocolErrors);
    }

    while (handshakeOk && conn->alive.load()) {
        timedOut = false;
        if (!conn->stream.readFrame(conn->fd.fd(), payload,
                                    serveMaxFrameBytes,
                                    config_.readTimeoutMs, error,
                                    &cleanEof, &timedOut)) {
            // Clean EOF and torn sockets both just end the session;
            // a slow-loris peer costs a read timeout; an oversized or
            // corrupted frame is the peer's protocol bug.
            if (timedOut) {
                registry_.add(ids_.readTimeouts);
                send(*conn, encodeError(0, error));
            } else if (!cleanEof &&
                       (error.find("ceiling") != std::string::npos ||
                        error.find("checksum") !=
                            std::string::npos)) {
                registry_.add(ids_.protocolErrors);
                send(*conn, encodeError(0, error));
            }
            break;
        }
        ClientMsg msg;
        if (!decodeClientMsg(payload, msg)) {
            registry_.add(ids_.protocolErrors);
            send(*conn, encodeError(0, "malformed message"));
            break;
        }
        switch (msg.type) {
            case ServeMsgType::Submit:
                handleSubmit(conn, msg.submit);
                break;
            case ServeMsgType::Cancel:
                handleCancel(conn, msg.id);
                break;
            case ServeMsgType::Ping:
                send(*conn, encodePong(msg.token));
                break;
            case ServeMsgType::StatsRequest:
                registry_.add(ids_.statsPolls);
                send(*conn, encodeStatsReply(statsReply(msg.token)));
                break;
            case ServeMsgType::HealthRequest:
                send(*conn,
                     encodeHealthReply(healthReply(msg.token)));
                break;
            default:
                registry_.add(ids_.protocolErrors);
                send(*conn,
                     encodeError(0, detail::concat(
                                        "unexpected ",
                                        serveMsgTypeName(msg.type),
                                        " message")));
                conn->alive.store(false);
                break;
        }
    }

    dropConnection(conn);
    conn->alive.store(false);
    conn->fd.shutdownBoth();
    std::lock_guard<std::mutex> lock(connMutex_);
    --activeReaders_;
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
    // Notified under the lock: once stop() sees no reader left, the
    // server and this condition variable may be destroyed.
    readersDone_.notify_all();
}

bool
CamsServer::handleSubmit(const std::shared_ptr<Conn> &conn,
                         const SubmitMsg &msg)
{
    // Admission decision and reply happen under the queue lock, so
    // the Accepted frame is on the wire before any worker can pop
    // the request and answer it. All submits serialize here, which
    // also makes the dedup check-or-create atomic.
    std::lock_guard<std::mutex> lock(queueMutex_);
    const uint32_t depth = static_cast<uint32_t>(queue_.size());
    if (conn->tenantIds)
        registry_.add(conn->tenantIds->submitted);
    registry_.record(ids_.queueDepth, static_cast<double>(depth));

    // Idempotent retries come first: a replay or join must work even
    // while draining or shedding, or a crash-retry loop could never
    // collect a result the server already computed.
    if (msg.retryKey != 0) {
        std::lock_guard<std::mutex> dlock(dedupMutex_);
        const auto it =
            dedup_.find(DedupKey{conn->tenant, msg.retryKey});
        if (it != dedup_.end()) {
            DedupEntry &entry = *it->second;
            if (entry.payloadHash != submitPayloadHash(msg)) {
                // Key reuse with a different payload: new work, and
                // the admission below repoints the key at it.
                registry_.add(ids_.dedupMismatch);
            } else if (entry.done) {
                registry_.add(ids_.dedupReplayed);
                send(*conn, encodeAccepted(msg.id, depth));
                registry_.add(ids_.completed);
                if (conn->tenantIds)
                    registry_.add(conn->tenantIds->completed);
                send(*conn,
                     encodeResultBytes(msg.id, entry.fromCache, false,
                                       entry.queueMs, entry.compileMs,
                                       entry.resultBytes));
                return true;
            } else {
                registry_.add(ids_.dedupJoined);
                entry.waiters.emplace_back(conn, msg.id);
                send(*conn, encodeAccepted(msg.id, depth));
                return true;
            }
        }
    }

    if (draining_ || stopping_) {
        registry_.add(ids_.shedDraining);
        if (conn->tenantIds)
            registry_.add(conn->tenantIds->shed);
        send(*conn, encodeShed(msg.id, "draining", depth,
                               /*retryAfterMs=*/100.0));
        return false;
    }
    if (static_cast<int>(queue_.size()) >= config_.queueCapacity) {
        registry_.add(ids_.shedFull);
        if (conn->tenantIds)
            registry_.add(conn->tenantIds->shed);
        send(*conn, encodeShed(msg.id, "queue_full", depth,
                               /*retryAfterMs=*/25.0));
        return false;
    }
    auto request = std::make_shared<Request>();
    request->conn = conn;
    request->msg = msg;
    request->tenant = conn->tenant;
    request->tenantIds = conn->tenantIds;
    request->arrivalMicros = nowMicros();
    if (config_.traceSink && msg.traceSampled && msg.traceId != 0) {
        config_.traceSink->instant(
            detail::concat("req-", msg.traceId, "/admitted"), "serve",
            {{"trace_id", detail::concat(msg.traceId)},
             {"tenant", sanitizeTenant(conn->tenant)},
             {"queue_depth", detail::concat(depth)}});
    }
    if (msg.retryKey != 0) {
        auto entry = std::make_shared<DedupEntry>();
        entry->payloadHash = submitPayloadHash(msg);
        request->dedup = entry;
        std::lock_guard<std::mutex> dlock(dedupMutex_);
        dedup_[DedupKey{conn->tenant, msg.retryKey}] = entry;
    }
    queue_.push_back(request);
    registry_.add(ids_.accepted);
    send(*conn, encodeAccepted(
                    msg.id, static_cast<uint32_t>(queue_.size())));
    workAvailable_.notify_one();
    return true;
}

void
CamsServer::handleCancel(const std::shared_ptr<Conn> &conn, uint64_t id)
{
    std::shared_ptr<Request> queued;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if ((*it)->conn == conn && (*it)->msg.id == id) {
                queued = *it;
                queue_.erase(it);
                notifyIfDrained();
                break;
            }
        }
        if (!queued) {
            for (const std::shared_ptr<Request> &request :
                 inFlight_) {
                if (request->conn == conn && request->msg.id == id) {
                    request->cancelled.store(true);
                    return; // the worker answers Cancelled
                }
            }
        }
    }
    if (queued)
        deliverCancelled(queued, /*wasQueued=*/true);
    // Unknown id: the Result already went out (a benign race) or the
    // client never submitted it. Either way there is nothing to undo.
}

void
CamsServer::workerLoop()
{
    for (;;) {
        std::shared_ptr<Request> request;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping, nothing left
            request = queue_.front();
            queue_.pop_front();
            request->startedMicros = nowMicros();
            inFlight_.push_back(request);
        }
        process(request);
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            inFlight_.erase(std::remove(inFlight_.begin(),
                                        inFlight_.end(), request),
                            inFlight_.end());
            notifyIfDrained();
        }
    }
}

void
CamsServer::process(const std::shared_ptr<Request> &request)
{
    Conn &conn = *request->conn;
    const SubmitMsg &msg = request->msg;
    const bool keyed = request->dedup != nullptr;
    const double queueMs =
        static_cast<double>(nowMicros() - request->arrivalMicros) /
        1000.0;
    registry_.record(ids_.queueMs, queueMs);

    // Sampled requests thread their client-chosen trace id through
    // every server-side phase: the queue wait is recorded as a scope
    // that ends now (it just did), and the compile below runs under
    // a "req-<id>" tag so the driver's own phase scopes join the
    // same correlated lane.
    TraceConfig trace;
    if (config_.traceSink && msg.traceSampled && msg.traceId != 0) {
        trace.sink = config_.traceSink;
        trace.tag = detail::concat("req-", msg.traceId);
        const int64_t queueUs =
            static_cast<int64_t>(queueMs * 1000.0);
        trace.sink->complete(
            trace.tag + "/queue_wait", "serve",
            trace.sink->now() - queueUs, queueUs,
            {{"trace_id", detail::concat(msg.traceId)},
             {"tenant", sanitizeTenant(request->tenant)}});
    }

    // The client is gone: unkeyed work is pure waste, but keyed work
    // must still finish into the dedup table -- its owner is probably
    // mid-reconnect and will resubmit for the answer.
    if (!conn.alive.load() && !keyed)
        return;
    if (request->cancelled.load()) {
        deliverCancelled(request, /*wasQueued=*/false);
        return;
    }

    // A request that outlived its deadline in the queue is answered
    // with the same classified failure an in-compile expiry gets.
    if (msg.deadlineMs > 0.0 && queueMs >= msg.deadlineMs) {
        CompileResult expired;
        expired.failure = FailureKind::Timeout;
        expired.failureDetail = detail::concat(
            "deadline of ", msg.deadlineMs, " ms expired after ",
            queueMs, " ms in the admission queue");
        registry_.add(ids_.deadlineExpired);
        deliverResult(request, expired, queueMs, 0.0);
        return;
    }

    if (config_.allowDebugSleep && msg.debugSleepMs > 0.0) {
        const Deadline nap(msg.debugSleepMs);
        while (!nap.expired() && !request->cancelled.load() &&
               !request->abandoned.load() &&
               (conn.alive.load() || keyed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        if (request->cancelled.load()) {
            deliverCancelled(request, /*wasQueued=*/false);
            return;
        }
        if (request->abandoned.load())
            return; // the watchdog already answered
    }

    Dfg graph;
    MachineDesc machine;
    if (!readDfg(msg.dfgBytes, graph) ||
        !readMachine(msg.machineBytes, machine) ||
        msg.scheduler > 1) {
        registry_.add(ids_.protocolErrors);
        deliverError(request, "malformed submit payload");
        return;
    }
    // compileUnified's single-cluster precondition is a panic (an
    // abort) inside the driver; a server must refuse the request,
    // never die on it.
    if (!msg.clustered && machine.numClusters() != 1) {
        registry_.add(ids_.protocolErrors);
        deliverError(request,
                     "unified compile requires a single-cluster "
                     "machine");
        return;
    }

    CompileOptions options = config_.baseOptions;
    options.scheduler = msg.scheduler == 1 ? SchedulerKind::Iterative
                                           : SchedulerKind::Swing;
    options.trace = trace;
    options.faults = nullptr;
    options.cache = tenantCache(request->tenant);
    options.cacheSalt =
        options.cache ? hashBytes(request->tenant) : 0;

    // The server-wide budget keeps cache keys stable; a tight
    // deadline shrinks it for this one request only.
    double budget = config_.compileBudgetMs;
    if (msg.deadlineMs > 0.0) {
        const double remaining = msg.deadlineMs - queueMs;
        if (budget <= 0.0 || remaining < budget)
            budget = remaining;
    }
    options.timeBudgetMs = budget;

    const Stopwatch watch;
    CompileResult result;
    {
        TraceScope compileScope(trace, TraceLevel::Phase,
                                "serve_compile", "serve");
        try {
            result = msg.clustered
                         ? compileClustered(graph, machine, options)
                         : compileUnified(graph, machine, options);
        } catch (const std::exception &err) {
            result = CompileResult{};
            result.failure = FailureKind::InternalInvariant;
            result.failureDetail = detail::concat(
                "uncaught exception escaped the compile: ",
                err.what());
        }
        compileScope.arg("from_cache",
                         result.fromCache ? "1" : "0");
    }
    const double compileMs = watch.elapsedMs();
    registry_.record(ids_.compileMs, compileMs);
    registry_.add(ids_.compiled);
    if (result.fromCache) {
        registry_.add(ids_.cacheHits);
        if (request->tenantIds)
            registry_.add(request->tenantIds->cacheHits);
    }

    if (request->cancelled.load()) {
        deliverCancelled(request, /*wasQueued=*/false);
        return;
    }
    deliverResult(request, result, queueMs, compileMs);
}

void
CamsServer::deliverResult(const std::shared_ptr<Request> &request,
                          const CompileResult &result, double queueMs,
                          double compileMs)
{
    ByteWriter body;
    writeCompileResult(body, result);
    deliverEncoded(request, result.fromCache, queueMs, compileMs,
                   body.take());
}

void
CamsServer::deliverEncoded(const std::shared_ptr<Request> &request,
                           bool fromCache, double queueMs,
                           double compileMs,
                           const std::string &resultBytes)
{
    // Exactly one of worker and watchdog wins the exchange; the
    // loser's answer (e.g. a hung compile finally finishing after
    // the watchdog classified it) is dropped on the floor.
    if (request->answered.exchange(true))
        return;
    if (request->tenantIds)
        registry_.add(request->tenantIds->completed);

    std::vector<std::pair<std::shared_ptr<Conn>, uint64_t>> targets;
    if (request->conn && request->conn->alive.load())
        targets.emplace_back(request->conn, request->msg.id);
    if (request->dedup) {
        std::lock_guard<std::mutex> lock(dedupMutex_);
        DedupEntry &entry = *request->dedup;
        if (!entry.done) {
            entry.done = true;
            entry.fromCache = fromCache;
            entry.queueMs = queueMs;
            entry.compileMs = compileMs;
            entry.resultBytes = resultBytes;
            for (auto &[weakConn, id] : entry.waiters) {
                std::shared_ptr<Conn> waiter = weakConn.lock();
                if (waiter && waiter->alive.load())
                    targets.emplace_back(std::move(waiter), id);
            }
            entry.waiters.clear();
            dedupDone_.emplace_back(
                DedupKey{request->tenant, request->msg.retryKey},
                request->dedup);
            evictDedupLocked();
        }
    }
    for (const auto &[target, id] : targets) {
        registry_.add(ids_.completed);
        send(*target, encodeResultBytes(id, fromCache, false, queueMs,
                                        compileMs, resultBytes));
    }
}

void
CamsServer::deliverCancelled(const std::shared_ptr<Request> &request,
                             bool wasQueued)
{
    if (request->answered.exchange(true))
        return;
    registry_.add(wasQueued ? ids_.cancelledQueued
                            : ids_.cancelledInFlight);
    const auto waiters = abandonDedup(request);
    if (request->conn && request->conn->alive.load())
        send(*request->conn,
             encodeCancelled(request->msg.id, wasQueued));
    for (const auto &[waiter, id] : waiters)
        send(*waiter, encodeCancelled(id, wasQueued));
}

void
CamsServer::deliverError(const std::shared_ptr<Request> &request,
                         const std::string &message)
{
    if (request->answered.exchange(true))
        return;
    const auto waiters = abandonDedup(request);
    if (request->conn && request->conn->alive.load())
        send(*request->conn, encodeError(request->msg.id, message));
    for (const auto &[waiter, id] : waiters)
        send(*waiter, encodeError(id, message));
}

std::vector<std::pair<std::shared_ptr<CamsServer::Conn>, uint64_t>>
CamsServer::abandonDedup(const std::shared_ptr<Request> &request)
{
    std::vector<std::pair<std::shared_ptr<Conn>, uint64_t>> waiters;
    if (!request->dedup)
        return waiters;
    std::lock_guard<std::mutex> lock(dedupMutex_);
    DedupEntry &entry = *request->dedup;
    for (auto &[weakConn, id] : entry.waiters) {
        std::shared_ptr<Conn> waiter = weakConn.lock();
        if (waiter && waiter->alive.load())
            waiters.emplace_back(std::move(waiter), id);
    }
    entry.waiters.clear();
    // A cancelled/errored request leaves no replayable answer; drop
    // the key (only if it still points here -- a mismatch admission
    // may have repointed it) so a retry becomes fresh work.
    const auto it =
        dedup_.find(DedupKey{request->tenant, request->msg.retryKey});
    if (it != dedup_.end() && it->second == request->dedup)
        dedup_.erase(it);
    return waiters;
}

void
CamsServer::evictDedupLocked()
{
    const size_t capacity =
        config_.dedupCapacity < 1
            ? 1
            : static_cast<size_t>(config_.dedupCapacity);
    while (dedupDone_.size() > capacity) {
        const auto &[key, entry] = dedupDone_.front();
        const auto it = dedup_.find(key);
        if (it != dedup_.end() && it->second == entry)
            dedup_.erase(it);
        dedupDone_.pop_front();
    }
}

void
CamsServer::watchdogLoop()
{
    const double periodMs =
        std::max(5.0, std::min(50.0, config_.watchdogMs / 4.0));
    while (!watchdogStop_.load()) {
        std::vector<std::shared_ptr<Request>> hung;
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            const int64_t now = nowMicros();
            for (const std::shared_ptr<Request> &request :
                 inFlight_) {
                if (request->answered.load() ||
                    request->abandoned.load() ||
                    request->startedMicros == 0)
                    continue;
                const double runMs =
                    static_cast<double>(now -
                                        request->startedMicros) /
                    1000.0;
                if (runMs >= config_.watchdogMs) {
                    request->abandoned.store(true);
                    hung.push_back(request);
                }
            }
        }
        for (const std::shared_ptr<Request> &request : hung) {
            registry_.add(ids_.watchdogFired);
            CompileResult timedOut;
            timedOut.failure = FailureKind::Timeout;
            timedOut.failureDetail = detail::concat(
                "watchdog: compile still running after ",
                config_.watchdogMs, " ms");
            const double queueMs =
                static_cast<double>(request->startedMicros -
                                    request->arrivalMicros) /
                1000.0;
            deliverResult(request, timedOut, queueMs,
                          config_.watchdogMs);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(periodMs)));
    }
}

void
CamsServer::scrubTenantCaches()
{
    if (config_.cacheRoot.empty() ||
        config_.cacheMode != CacheMode::ReadWrite)
        return;
    std::error_code ec;
    std::filesystem::directory_iterator it(config_.cacheRoot, ec);
    if (ec)
        return; // no cache directory yet: nothing to scrub
    long quarantined = 0;
    long tmpRemoved = 0;
    for (const auto &dirEntry : it) {
        if (!dirEntry.is_directory(ec) || ec)
            continue;
        const ScrubReport report =
            scrubCacheDir(dirEntry.path().string());
        quarantined += report.quarantined;
        tmpRemoved += report.tmpRemoved;
        if (!report.error.empty())
            cams_warn("cache scrub of ", dirEntry.path().string(),
                      " failed: ", report.error);
    }
    if (quarantined > 0)
        registry_.add("serve.cache_quarantined", quarantined);
    if (tmpRemoved > 0)
        registry_.add("serve.cache_tmp_removed", tmpRemoved);
}

void
CamsServer::dropConnection(const std::shared_ptr<Conn> &conn)
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    // Keyed requests survive their connection: the client is
    // expected back with the same retryKey, and the dedup table is
    // where it collects the answer. Unkeyed work dies with the conn.
    for (auto it = queue_.begin(); it != queue_.end();) {
        if ((*it)->conn == conn && !(*it)->dedup)
            it = queue_.erase(it);
        else
            ++it;
    }
    // Unkeyed in-flight compiles for a dead client finish but skip
    // the send.
    for (const std::shared_ptr<Request> &request : inFlight_) {
        if (request->conn == conn && !request->dedup)
            request->cancelled.store(true);
    }
    notifyIfDrained();
}

CompileCache *
CamsServer::tenantCache(const std::string &tenant)
{
    if (config_.cacheRoot.empty() ||
        config_.cacheMode == CacheMode::Off)
        return nullptr;
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto it = tenantCaches_.find(tenant);
    if (it == tenantCaches_.end()) {
        const std::string dir =
            config_.cacheRoot + "/" + sanitizeTenant(tenant);
        it = tenantCaches_
                 .emplace(tenant, std::make_unique<CompileCache>(
                                      dir, config_.cacheMode))
                 .first;
    }
    return it->second->enabled() ? it->second.get() : nullptr;
}

void
CamsServer::notifyIfDrained()
{
    if (queue_.empty() && inFlight_.empty())
        drainedCv_.notify_all();
}

} // namespace cams
