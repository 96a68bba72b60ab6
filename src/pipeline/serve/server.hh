/**
 * @file
 * camsd's engine: a long-running compile server over a Unix-domain
 * socket, built from the pieces PRs 1-5 already hardened -- the
 * single-compile driver, the persistent compile cache, and the
 * metrics registry.
 *
 * Threading model. One accept thread hands each connection to its
 * own reader thread; readers perform admission and drop accepted
 * requests into one bounded FIFO; a fixed pool of compile workers
 * drains it. Responses are written under a per-connection mutex, so
 * workers and the reader interleave whole frames, never bytes.
 *
 * Admission control. The queue is strictly bounded
 * (ServeConfig::queueCapacity). A Submit that arrives with the queue
 * full is answered with Shed("queue_full") immediately -- explicit
 * backpressure the client can meter itself by -- and after drain
 * begins every Submit gets Shed("draining"). Admission and the
 * Accepted/Shed reply happen under the queue lock, so a client never
 * observes a Result before its Accepted.
 *
 * Deadlines. A request may carry an end-to-end deadline. Expiry
 * while still queued produces a classified FailureKind::Timeout
 * result without compiling; once running, the remaining budget rides
 * the driver's CompileOptions::timeBudgetMs plumbing. The budget
 * only shrinks below the server-wide compile budget when the
 * deadline demands it, which keeps cache keys (which include the
 * budget) stable across ordinary requests.
 *
 * Multi-tenancy. The Hello handshake names a tenant; each tenant
 * gets its own CompileCache directory under ServeConfig::cacheRoot
 * (own .cce store) *and* its id salted into every
 * CacheKey (CompileOptions::cacheSalt), so namespaces stay disjoint
 * even if two tenants were ever pointed at one directory.
 *
 * Shutdown. requestDrain() stops accepting connections and sheds new
 * submits; queued and in-flight work runs to completion and every
 * response is delivered before waitDrained() returns. stop() then
 * tears the threads down. SIGTERM in camsd maps to exactly this
 * sequence.
 */

#ifndef CAMS_PIPELINE_SERVE_SERVER_HH
#define CAMS_PIPELINE_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/cache/compile_cache.hh"
#include "pipeline/driver.hh"
#include "pipeline/serve/proto.hh"
#include "pipeline/serve/stream.hh"
#include "support/metrics.hh"
#include "support/socket.hh"
#include "support/trace.hh"

namespace cams
{

/** Everything a CamsServer needs to run. */
struct ServeConfig
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath;

    /** Compile worker threads. */
    int workers = 2;

    /** Bounded admission queue capacity (excludes in-flight work). */
    int queueCapacity = 64;

    /**
     * Root directory of the per-tenant compile caches; empty
     * disables caching. Tenant <t> lives in <cacheRoot>/<t> with its
     * own entry store.
     */
    std::string cacheRoot;
    CacheMode cacheMode = CacheMode::ReadWrite;

    /**
     * Per-compile wall-clock budget (CompileOptions::timeBudgetMs)
     * applied to every served compile; 0 = none. Requests whose
     * deadline leaves less than this get the smaller remainder.
     */
    double compileBudgetMs = 5000.0;

    /** Honor SubmitMsg::debugSleepMs (tests only). */
    bool allowDebugSleep = false;

    /**
     * Mid-frame read deadline per connection in milliseconds (0 =
     * none). Idle connections wait forever; a peer that starts a
     * frame and stalls -- slow-loris -- is disconnected after this
     * budget. Must comfortably exceed any chaos stall in tests.
     */
    double readTimeoutMs = 5000.0;

    /**
     * Hung-compile watchdog in milliseconds (0 = off). An in-flight
     * request still unanswered this long after dequeue is answered
     * with a classified FailureKind::Timeout result; the worker's
     * eventual completion is suppressed. The worker thread itself is
     * never killed (that is not safe), so a truly wedged compile
     * still occupies its thread -- the watchdog unwedges the
     * *client*, not the pool.
     */
    double watchdogMs = 0.0;

    /**
     * Scrub every tenant cache directory under cacheRoot on start(),
     * quarantining entries torn by a previous crash.
     */
    bool scrubOnStart = true;

    /** Server-side outbound chaos injection (tests/harness only). */
    ChaosConfig chaos;

    /**
     * Request-trace sink (null = tracing off). Submits that arrive
     * with traceSampled set record their admission, queue wait and
     * compile phases into it, tagged "req-<traceId>", so one
     * request's server-side life is a correlated lane in the Chrome
     * trace. camsd owns the sink (bounded ring) and writes it at
     * shutdown.
     */
    TraceSink *traceSink = nullptr;

    /**
     * Base options of every served compile. scheduler/clustered come
     * from each Submit; cache, cacheSalt and timeBudgetMs are
     * overwritten per request. Clients that want byte-identical
     * local reproduction must compile with these same options.
     */
    CompileOptions baseOptions;
};

/**
 * Every serve counter the server interns at construction, once:
 * X(field, "registry name"). The rows generate ServeStats' fields,
 * the server's metric ids, their interning (in row order) and the
 * reads in stats().
 */
#define CAMS_SERVE_COUNTERS(X)                                             \
    /* handshakes completed */                                             \
    X(connections, "serve.connections")                                    \
    /* submits admitted to the queue */                                    \
    X(accepted, "serve.accepted")                                          \
    /* submits refused: queue full */                                      \
    X(shedFull, "serve.shed_full")                                         \
    /* submits refused: draining */                                        \
    X(shedDraining, "serve.shed_draining")                                 \
    /* Result messages sent */                                             \
    X(completed, "serve.completed")                                        \
    /* driver invocations (not shed/expired) */                            \
    X(compiled, "serve.compiled")                                          \
    /* results served from a tenant cache */                               \
    X(cacheHits, "serve.cache_hits")                                       \
    /* Timeout results for queue expiry */                                 \
    X(deadlineExpired, "serve.deadline_expired")                           \
    /* cancels that removed a queued request */                            \
    X(cancelledQueued, "serve.cancelled_queued")                           \
    /* cancels that caught a running one */                                \
    X(cancelledInFlight, "serve.cancelled_in_flight")                      \
    /* malformed frames/messages seen */                                   \
    X(protocolErrors, "serve.protocol_errors")                             \
    /* connections cut mid-frame (slow peer) */                            \
    X(readTimeouts, "serve.read_timeouts")                                 \
    /* hung compiles answered as Timeout */                                \
    X(watchdogFired, "serve.watchdog_fired")                               \
    /* retried Submits served stored bytes */                              \
    X(dedupReplayed, "serve.dedup_replayed")                               \
    /* retried Submits joined in-flight work */                            \
    X(dedupJoined, "serve.dedup_joined")                                   \
    /* retry-key reuse with different payload */                           \
    X(dedupMismatch, "serve.dedup_mismatch")                               \
    /* StatsRequests answered */                                           \
    X(statsPolls, "serve.stats_polls")

/** Monotonic serve-side event counts (also in the metrics registry). */
struct ServeStats
{
#define CAMS_DECLARE_COUNTER(field, name) long field = 0;
    CAMS_SERVE_COUNTERS(CAMS_DECLARE_COUNTER)
#undef CAMS_DECLARE_COUNTER

    /** Cache files quarantined at startup: serve.cache_quarantined,
     *  which start() adds to the registry only when nonzero. */
    long quarantined = 0;
};

/** The compile server. One instance per socket. */
class CamsServer
{
  public:
    explicit CamsServer(ServeConfig config);

    /** Calls stop(). */
    ~CamsServer();

    CamsServer(const CamsServer &) = delete;
    CamsServer &operator=(const CamsServer &) = delete;

    /** Binds the socket and launches the threads. */
    bool start(std::string &error);

    /**
     * Begins graceful drain: the listener closes, new submits on
     * existing connections are shed, queued and running work
     * completes normally. Idempotent; safe from any thread (but not
     * from a signal handler -- camsd forwards signals via a pipe).
     */
    void requestDrain();

    /** Blocks until the queue is empty and no compile is running. */
    void waitDrained();

    /** Full teardown: drain, close connections, join every thread. */
    void stop();

    /** Current event counts. */
    ServeStats stats() const;

    /**
     * Snapshot of the server's metrics registry: the ServeStats
     * counters under serve.*, plus serve.queue_ms / serve.compile_ms
     * wait and service histograms (p50/p90/p99).
     */
    std::string metricsJson() const;

    /**
     * Full live-telemetry snapshot: uptime, queue depth, in-flight
     * count, every counter and histogram (cumulative + last-1m/5m
     * windows) and the per-tenant breakdown. The same snapshot a
     * StatsRequest gets on the wire; camsd's --stats-interval-ms
     * heartbeat renders it locally.
     */
    StatsReplyMsg statsReply(uint64_t token = 0) const;

    /** The answer a HealthRequest gets. */
    HealthReplyMsg healthReply(uint64_t token = 0) const;

    const ServeConfig &config() const { return config_; }

  private:
    /** Interned per-tenant counter ids ("serve.tenant.<t>.*"). */
    struct TenantIds
    {
        MetricsRegistry::MetricId submitted = 0;
        MetricsRegistry::MetricId completed = 0;
        MetricsRegistry::MetricId shed = 0;
        MetricsRegistry::MetricId cacheHits = 0;
    };

    struct Conn
    {
        SocketFd fd;
        std::mutex writeMutex;
        std::string tenant;
        ServeStream stream;
        std::atomic<bool> alive{true};
        /** Set at handshake; points into tenantMetricIds_ (stable). */
        const TenantIds *tenantIds = nullptr;
    };

    /**
     * Idempotency record of one retry-keyed request. Created at
     * admission, completed by whichever of worker and watchdog
     * answers first, and kept (bounded LRU) so late retries replay
     * the exact stored bytes. Guarded by dedupMutex_.
     */
    struct DedupEntry
    {
        uint64_t payloadHash = 0;
        bool done = false;
        bool fromCache = false;
        double queueMs = 0.0;
        double compileMs = 0.0;
        std::string resultBytes;
        /** Retried connections waiting on the in-flight compile. */
        std::vector<std::pair<std::weak_ptr<Conn>, uint64_t>> waiters;
    };

    using DedupKey = std::pair<std::string, uint64_t>;

    struct Request
    {
        std::shared_ptr<Conn> conn;
        SubmitMsg msg;
        std::string tenant;
        /** Copied from the admitting Conn (stable storage). */
        const TenantIds *tenantIds = nullptr;
        int64_t arrivalMicros = 0;
        /** Dequeue time; set/read under queueMutex_ (watchdog). */
        int64_t startedMicros = 0;
        /** Non-null iff msg.retryKey != 0. */
        std::shared_ptr<DedupEntry> dedup;
        std::atomic<bool> cancelled{false};
        /** A terminal answer went out (worker or watchdog). */
        std::atomic<bool> answered{false};
        /** The watchdog gave up on this request's worker. */
        std::atomic<bool> abandoned{false};
    };

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Conn> conn);
    void workerLoop();
    void watchdogLoop();
    void process(const std::shared_ptr<Request> &request);
    void dropConnection(const std::shared_ptr<Conn> &conn);

    /** Whole-frame send; marks the connection dead on failure. */
    void send(Conn &conn, const std::string &payload);

    bool handleSubmit(const std::shared_ptr<Conn> &conn,
                      const SubmitMsg &msg);
    void handleCancel(const std::shared_ptr<Conn> &conn, uint64_t id);

    /** Terminal delivery to the primary connection and all dedup
     *  waiters, at most once per request. */
    void deliverResult(const std::shared_ptr<Request> &request,
                       const CompileResult &result, double queueMs,
                       double compileMs);
    void deliverEncoded(const std::shared_ptr<Request> &request,
                        bool fromCache, double queueMs, double compileMs,
                        const std::string &resultBytes);
    void deliverCancelled(const std::shared_ptr<Request> &request,
                          bool wasQueued);
    void deliverError(const std::shared_ptr<Request> &request,
                      const std::string &message);

    /** Drops this request's dedup entry (not done) and returns the
     *  waiters that must still be answered. Takes dedupMutex_. */
    std::vector<std::pair<std::shared_ptr<Conn>, uint64_t>>
    abandonDedup(const std::shared_ptr<Request> &request);

    void evictDedupLocked();

    /** Scrubs every tenant directory under cacheRoot (startup). */
    void scrubTenantCaches();

    /** Lazily opened per-tenant cache; null when caching is off. */
    CompileCache *tenantCache(const std::string &tenant);

    /** Interns (once) and returns a tenant's counter ids. */
    const TenantIds *tenantIds(const std::string &tenant);

    void notifyIfDrained();

    ServeConfig config_;
    UnixListener listener_;

    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;

    mutable std::mutex queueMutex_;
    std::condition_variable workAvailable_;
    std::condition_variable drainedCv_;
    std::deque<std::shared_ptr<Request>> queue_;
    std::vector<std::shared_ptr<Request>> inFlight_;
    bool draining_ = false;
    bool stopping_ = false;

    std::mutex connMutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    int activeReaders_ = 0;
    std::condition_variable readersDone_;
    uint64_t connSeq_ = 0; ///< accept thread only (chaos seeding)

    /** After queueMutex_ in lock order; before conn.writeMutex. */
    std::mutex dedupMutex_;
    std::map<DedupKey, std::shared_ptr<DedupEntry>> dedup_;
    std::deque<std::pair<DedupKey, std::shared_ptr<DedupEntry>>>
        dedupDone_;

    std::thread watchdogThread_;
    std::atomic<bool> watchdogStop_{false};

    mutable std::mutex cacheMutex_;
    std::map<std::string, std::unique_ptr<CompileCache>> tenantCaches_;

    mutable MetricsRegistry registry_;
    std::atomic<bool> started_{false};
    int64_t startMicros_ = 0;

    /**
     * Hot-path metric ids, interned once at construction so every
     * per-request recording site is a lock-free id operation -- no
     * name lookup, no registry mutex.
     */
    struct MetricIds
    {
#define CAMS_DECLARE_ID(field, name) MetricsRegistry::MetricId field = 0;
        CAMS_SERVE_COUNTERS(CAMS_DECLARE_ID)
#undef CAMS_DECLARE_ID
        MetricsRegistry::MetricId queueMs = 0;    ///< histogram
        MetricsRegistry::MetricId compileMs = 0;  ///< histogram
        MetricsRegistry::MetricId queueDepth = 0; ///< histogram
    };
    MetricIds ids_;

    mutable std::mutex tenantIdsMutex_;
    /** node-stable map: Conn/Request keep pointers into it. */
    std::map<std::string, TenantIds> tenantMetricIds_;
};

/** Filesystem-safe tenant directory name ([A-Za-z0-9_-], else '_';
 *  empty maps to "default"). */
std::string sanitizeTenant(const std::string &tenant);

} // namespace cams

#endif // CAMS_PIPELINE_SERVE_SERVER_HH
