/**
 * @file
 * The camsd wire protocol: the messages that travel inside the
 * checksummed frames of pipeline/serve/stream.hh.
 *
 * Every payload is ByteWriter-encoded (little-endian fixed-width
 * ints, length-prefixed strings) and starts with a u32 message type.
 * Decoding is strict: a payload that does not parse completely --
 * truncated fields, unknown type, trailing bytes -- is a protocol
 * error, answered with an Error message and a closed connection.
 *
 * Session shape. A client opens a connection, sends Hello (protocol
 * version + tenant id) and waits for HelloAck. After the handshake
 * it may pipeline any number of Submit/Cancel/Ping messages; the
 * server answers each Submit with exactly one of Accepted+Result,
 * Accepted+Cancelled, or Shed, in any interleaving across requests
 * (responses to different requests are not ordered). Request ids are
 * chosen by the client and scoped to its connection.
 *
 * Loops and machines travel as the cache's exact byte images
 * (packDfg/packMachine) and results as writeCompileResult bytes, so
 * the serve path reuses the one serialization format the system
 * already trusts, and "served result == local compile" is a byte
 * comparison.
 */

#ifndef CAMS_PIPELINE_SERVE_PROTO_HH
#define CAMS_PIPELINE_SERVE_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/driver.hh"
#include "support/metrics.hh"

namespace cams
{

/**
 * Bumped on any incompatible wire change. v2: per-frame payload
 * checksums (stream.hh), the Submit retry key, and the Shed
 * retry-after hint. v3: Stats/Health polling messages and the
 * Submit trace id + sampling flag. v4: the frame checksum is the
 * word-at-a-time hashBytes.
 */
constexpr uint32_t serveProtoVersion = 4;

/** Frames larger than this are protocol errors on both sides. */
constexpr uint32_t serveMaxFrameBytes = 64u << 20;

/** Wire message types. */
enum class ServeMsgType : uint32_t
{
    Hello = 1,  ///< client: version + tenant id (first message)
    HelloAck,   ///< server: handshake accepted
    Submit,     ///< client: compile one loop on one machine
    Accepted,   ///< server: request admitted to the queue
    Shed,       ///< server: request refused (overload or draining)
    Result,     ///< server: the finished CompileResult
    Cancel,     ///< client: abandon a submitted request
    Cancelled,  ///< server: request ended without a result
    Error,      ///< server: protocol or connection-level failure
    Ping,       ///< client: liveness probe
    Pong,       ///< server: liveness answer

    StatsRequest = 12,  ///< client: poll live telemetry
    StatsReply = 13,    ///< server: counters/histograms/windows
    HealthRequest = 14, ///< client: cheap liveness + readiness probe
    HealthReply = 15,   ///< server: status + queue headroom
};

/** Stable name of a message type (for logs and errors). */
const char *serveMsgTypeName(ServeMsgType type);

/** Client handshake. */
struct HelloMsg
{
    uint32_t version = serveProtoVersion;
    /** Cache namespace this connection compiles under. */
    std::string tenant;
};

/** One compile request. */
struct SubmitMsg
{
    /** Client-chosen id, unique per connection. */
    uint64_t id = 0;

    /**
     * Idempotency key for crash-safe retries; 0 = none. A resubmitted
     * request carries the same non-zero key (unique per logical
     * request across the tenant's connections), and the server dedups
     * against in-flight and recently completed work under that key:
     * the retry joins the running compile or replays the stored
     * result bytes verbatim, so a retried Submit never compiles twice
     * and never returns divergent bytes. Keyed work also survives its
     * client's disconnect -- the compile finishes into the dedup
     * table and waits for the reconnecting client.
     */
    uint64_t retryKey = 0;

    /** False compiles the unified baseline path. */
    bool clustered = true;

    /** SchedulerKind as u32 (Swing = 0, Iterative = 1). */
    uint32_t scheduler = 0;

    /**
     * End-to-end deadline in milliseconds from server receipt; 0 =
     * none. A request still queued past its deadline is answered
     * with a FailureKind::Timeout result without compiling; once
     * running, the remaining budget rides the driver's existing
     * timeBudgetMs plumbing.
     */
    double deadlineMs = 0.0;

    /**
     * Test hook: make the worker sleep this long before compiling.
     * Honored only when the server was configured to allow it
     * (ServeConfig::allowDebugSleep); ignored otherwise. Exists so
     * the queueing tests (cancel mid-queue, drain, overload) can
     * hold a worker busy deterministically.
     */
    double debugSleepMs = 0.0;

    /** packDfg image of the loop. */
    std::string dfgBytes;

    /** packMachine image of the target machine. */
    std::string machineBytes;

    /**
     * Client-generated 64-bit trace correlation id; 0 = none. When
     * @ref traceSampled is also set, the server threads this id
     * through every TraceSink scope the request touches (admission,
     * queue wait, compile phases, cache probes), so one request
     * reads as a single correlated lane from client submit to
     * result. The id travels even when unsampled so logs can still
     * name the request.
     */
    uint64_t traceId = 0;

    /**
     * Head-based sampling decision, made once by the client
     * (--trace-sample=N keeps every Nth request) and honored by the
     * server: only sampled requests record trace events.
     */
    bool traceSampled = false;
};

/** One counter in a StatsReply: cumulative plus recent windows. */
struct StatsCounter
{
    std::string name;
    int64_t total = 0;  ///< since process start
    int64_t last1m = 0; ///< last-1-minute delta
    int64_t last5m = 0; ///< last-5-minutes delta
};

/** One distribution in a StatsReply. */
struct StatsHistogram
{
    std::string name;
    HistogramSummary total;  ///< since process start
    HistogramSummary last1m; ///< last-1-minute window
    HistogramSummary last5m; ///< last-5-minutes window
};

/** Per-tenant request breakdown in a StatsReply. */
struct TenantStats
{
    std::string tenant;
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t shed = 0;
    int64_t cacheHits = 0;
};

/** Live telemetry snapshot of a running daemon. */
struct StatsReplyMsg
{
    uint64_t token = 0; ///< echo of the request token
    double uptimeSeconds = 0.0;
    double windowSeconds = 0.0; ///< live-window span of the registry
    uint32_t queueDepth = 0;
    uint32_t inFlight = 0;
    uint32_t workers = 0;
    uint32_t queueCapacity = 0;
    bool draining = false;
    std::vector<StatsCounter> counters;
    std::vector<StatsHistogram> histograms;
    std::vector<TenantStats> tenants;
};

/** Liveness + readiness answer. */
struct HealthReplyMsg
{
    uint64_t token = 0;
    std::string status; ///< "ok" or "draining"
    uint32_t version = 0;
    double uptimeSeconds = 0.0;
    uint32_t queueDepth = 0;
    uint32_t queueCapacity = 0;
    uint32_t inFlight = 0;
};

/** Decoded client -> server message. */
struct ClientMsg
{
    ServeMsgType type = ServeMsgType::Hello;
    HelloMsg hello;
    SubmitMsg submit;
    uint64_t id = 0;    ///< Cancel target
    uint64_t token = 0; ///< Ping / StatsRequest / HealthRequest payload
};

/** Decoded server -> client message. */
struct ServerMsg
{
    ServeMsgType type = ServeMsgType::Error;
    uint64_t id = 0; ///< request id (0 = connection-level)

    // HelloAck
    uint32_t version = 0;
    uint32_t workers = 0;
    uint32_t queueCapacity = 0;

    // Accepted / Shed
    uint32_t queueDepth = 0;
    std::string reason;       ///< Shed: "queue_full" or "draining"
    double retryAfterMs = 0.0; ///< Shed: suggested retry delay (0 = now)

    // Result
    bool fromCache = false;
    bool hintUsed = false;  ///< warm-start flag; this server sends 0
    double queueMs = 0.0;   ///< admission-to-dequeue wait
    double compileMs = 0.0; ///< worker time incl. cache probe
    std::string resultBytes;

    // Cancelled
    bool wasQueued = false; ///< true: removed before running

    // Error
    std::string message;

    // Pong / StatsReply / HealthReply correlation
    uint64_t token = 0;

    // StatsReply
    StatsReplyMsg stats;

    // HealthReply
    HealthReplyMsg health;
};

// Client-side encoders.
std::string encodeHello(const HelloMsg &msg);
std::string encodeSubmit(const SubmitMsg &msg);
std::string encodeCancel(uint64_t id);
std::string encodePing(uint64_t token);
std::string encodeStatsRequest(uint64_t token);
std::string encodeHealthRequest(uint64_t token);

// Server-side encoders.
std::string encodeHelloAck(uint32_t workers, uint32_t queueCapacity);
std::string encodeAccepted(uint64_t id, uint32_t queueDepth);
std::string encodeShed(uint64_t id, const std::string &reason,
                       uint32_t queueDepth, double retryAfterMs);
std::string encodeResult(uint64_t id, const CompileResult &result,
                         double queueMs, double compileMs);

/**
 * encodeResult() from pre-serialized writeCompileResult bytes, for
 * replaying a deduplicated result without re-decoding it. hintUsed
 * fills the frame's warm-start flag, which v3 clients still decode;
 * this server always passes false.
 */
std::string encodeResultBytes(uint64_t id, bool fromCache,
                              bool hintUsed, double queueMs,
                              double compileMs,
                              const std::string &resultBytes);
std::string encodeCancelled(uint64_t id, bool wasQueued);
std::string encodeError(uint64_t id, const std::string &message);
std::string encodePong(uint64_t token);
std::string encodeStatsReply(const StatsReplyMsg &msg);
std::string encodeHealthReply(const HealthReplyMsg &msg);

/** Parses a client payload; false = protocol error. */
bool decodeClientMsg(const std::string &payload, ClientMsg &out);

/**
 * Parses a server payload; false = protocol error. A Result's
 * resultBytes are passed through undecoded -- callers that need the
 * CompileResult run readCompileResult themselves (and the load
 * generator compares the raw bytes without ever decoding).
 */
bool decodeServerMsg(const std::string &payload, ServerMsg &out);

} // namespace cams

#endif // CAMS_PIPELINE_SERVE_PROTO_HH
