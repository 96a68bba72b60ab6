/**
 * @file
 * Tests for the compile server (pipeline/serve): protocol round
 * trips against direct compiles, deadline expiry in the queue,
 * cancellation of queued and running requests, graceful drain,
 * overload shedding, tenant cache namespacing, and two servers
 * sharing one persistent cache directory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

#include <cstring>

#include "machine/configs.hh"
#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/serve/client.hh"
#include "pipeline/serve/retry_client.hh"
#include "pipeline/serve/server.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

namespace fs = std::filesystem;

/** Unique socket path per test (sun_path is only ~100 bytes). */
std::string
testSocket(const std::string &name)
{
    return "/tmp/cams_serve_" + std::to_string(::getpid()) + "_" +
           name + ".sock";
}

/** Fresh scratch directory under the system tmp dir. */
std::string
testDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() /
                   ("cams_serve_" + std::to_string(::getpid()) +
                    "_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Zeroes the one wall-clock field of the result image. */
std::string
canonicalBytes(const CompileResult &result)
{
    CompileResult copy = result;
    copy.phaseMs = PhaseTimes{};
    ByteWriter writer;
    writeCompileResult(writer, copy);
    return writer.data();
}

/** A terminal server response (Result/Shed/Cancelled/Error). */
struct Outcome
{
    ServeMsgType type = ServeMsgType::Error;
    bool accepted = false;
    ServerMsg msg;
};

/**
 * Reads until every id in @p ids reached a terminal message.
 * Accepted messages mark the outcome but do not terminate it.
 */
std::map<uint64_t, Outcome>
collect(ServeClient &client, const std::vector<uint64_t> &ids)
{
    std::map<uint64_t, Outcome> outcomes;
    for (const uint64_t id : ids)
        outcomes[id] = Outcome{};
    size_t terminal = 0;
    while (terminal < outcomes.size()) {
        ServerMsg msg;
        std::string error;
        if (!client.readMsg(msg, error)) {
            ADD_FAILURE() << "connection lost waiting for responses: "
                          << error;
            break;
        }
        auto it = outcomes.find(msg.id);
        if (it == outcomes.end())
            continue; // Pong or unrelated
        if (msg.type == ServeMsgType::Accepted) {
            it->second.accepted = true;
            continue;
        }
        it->second.type = msg.type;
        it->second.msg = msg;
        ++terminal;
    }
    return outcomes;
}

/** One server + the loop/machine corpus every test compiles. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(ServeConfig config)
    {
        server = std::make_unique<CamsServer>(std::move(config));
        std::string error;
        ASSERT_TRUE(server->start(error)) << error;
    }

    SubmitMsg
    makeSubmit(uint64_t id, int loopIndex)
    {
        SubmitMsg msg;
        msg.id = id;
        msg.dfgBytes = packDfg(suite[loopIndex % suite.size()]);
        msg.machineBytes = machineBytes;
        return msg;
    }

    MachineDesc machine = busedGpMachine(2, 2, 1);
    std::string machineBytes = packMachine(machine);
    std::vector<Dfg> suite = buildSuite(8, defaultSuiteSeed);
    std::unique_ptr<CamsServer> server;
};

TEST_F(ServeTest, RoundTripMatchesDirectCompile)
{
    ServeConfig config;
    config.socketPath = testSocket("roundtrip");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    EXPECT_EQ(client.serverQueueCapacity(),
              static_cast<uint32_t>(config.queueCapacity));

    std::vector<uint64_t> ids;
    for (uint64_t id = 1; id <= suite.size(); ++id) {
        ASSERT_TRUE(client.submit(makeSubmit(id, int(id - 1)),
                                  error))
            << error;
        ids.push_back(id);
    }
    auto outcomes = collect(client, ids);

    CompileOptions options;
    options.timeBudgetMs = config.compileBudgetMs;
    for (const uint64_t id : ids) {
        const Outcome &outcome = outcomes[id];
        ASSERT_EQ(outcome.type, ServeMsgType::Result);
        EXPECT_TRUE(outcome.accepted);
        CompileResult served;
        ByteReader reader(outcome.msg.resultBytes);
        ASSERT_TRUE(readCompileResult(reader, served));
        const CompileResult local = compileClustered(
            suite[id - 1], machine, options);
        EXPECT_EQ(canonicalBytes(served), canonicalBytes(local))
            << "loop " << id - 1;
    }
    server->stop();
}

TEST_F(ServeTest, UnifiedPathRoundTrips)
{
    ServeConfig config;
    config.socketPath = testSocket("unified");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    const MachineDesc unified = machine.unifiedEquivalent();
    SubmitMsg msg = makeSubmit(1, 0);
    msg.clustered = false;
    msg.machineBytes = packMachine(unified);
    ASSERT_TRUE(client.submit(msg, error)) << error;

    // A unified request against a clustered machine is refused with
    // an Error -- the driver's single-cluster precondition panics,
    // so the server must never let such a request reach it.
    SubmitMsg bad = makeSubmit(2, 0);
    bad.clustered = false;
    ASSERT_TRUE(client.submit(bad, error)) << error;

    auto outcomes = collect(client, {1, 2});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Result);
    EXPECT_EQ(outcomes[2].type, ServeMsgType::Error);

    CompileResult served;
    ByteReader reader(outcomes[1].msg.resultBytes);
    ASSERT_TRUE(readCompileResult(reader, served));
    CompileOptions options;
    options.timeBudgetMs = config.compileBudgetMs;
    const CompileResult local =
        compileUnified(suite[0], unified, options);
    EXPECT_EQ(canonicalBytes(served), canonicalBytes(local));
    server->stop();
}

TEST_F(ServeTest, DeadlineExpiredInQueueReturnsTimeoutResult)
{
    ServeConfig config;
    config.socketPath = testSocket("deadline");
    config.workers = 1;
    config.allowDebugSleep = true;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    // Request 1 holds the only worker long past request 2's
    // deadline; 2 must come back as a classified Timeout result,
    // not a hang and not a protocol error.
    SubmitMsg blocker = makeSubmit(1, 0);
    blocker.debugSleepMs = 400.0;
    ASSERT_TRUE(client.submit(blocker, error)) << error;
    SubmitMsg doomed = makeSubmit(2, 1);
    doomed.deadlineMs = 50.0;
    ASSERT_TRUE(client.submit(doomed, error)) << error;

    auto outcomes = collect(client, {1, 2});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Result);
    ASSERT_EQ(outcomes[2].type, ServeMsgType::Result);

    CompileResult result;
    ByteReader reader(outcomes[2].msg.resultBytes);
    ASSERT_TRUE(readCompileResult(reader, result));
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.failure, FailureKind::Timeout);
    EXPECT_NE(result.failureDetail.find("admission queue"),
              std::string::npos)
        << result.failureDetail;

    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.deadlineExpired, 1);
    EXPECT_EQ(stats.completed, 2);
    server->stop();
}

TEST_F(ServeTest, CancelMidQueueRemovesRequest)
{
    ServeConfig config;
    config.socketPath = testSocket("cancelq");
    config.workers = 1;
    config.allowDebugSleep = true;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    SubmitMsg blocker = makeSubmit(1, 0);
    blocker.debugSleepMs = 300.0;
    ASSERT_TRUE(client.submit(blocker, error)) << error;
    ASSERT_TRUE(client.submit(makeSubmit(2, 1), error)) << error;
    ASSERT_TRUE(client.cancel(2, error)) << error;

    auto outcomes = collect(client, {1, 2});
    EXPECT_EQ(outcomes[1].type, ServeMsgType::Result);
    ASSERT_EQ(outcomes[2].type, ServeMsgType::Cancelled);
    EXPECT_TRUE(outcomes[2].msg.wasQueued);
    EXPECT_EQ(server->stats().cancelledQueued, 1);
    server->stop();
}

TEST_F(ServeTest, CancelInFlightSkipsResult)
{
    ServeConfig config;
    config.socketPath = testSocket("cancelrun");
    config.workers = 1;
    config.allowDebugSleep = true;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    SubmitMsg msg = makeSubmit(1, 0);
    msg.debugSleepMs = 500.0;
    ASSERT_TRUE(client.submit(msg, error)) << error;
    // Let the worker pick it up, then cancel the running request.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(client.cancel(1, error)) << error;

    auto outcomes = collect(client, {1});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Cancelled);
    EXPECT_FALSE(outcomes[1].msg.wasQueued);
    EXPECT_EQ(server->stats().cancelledInFlight, 1);
    server->stop();
}

TEST_F(ServeTest, DrainCompletesInFlightAndShedsNewWork)
{
    ServeConfig config;
    config.socketPath = testSocket("drain");
    config.workers = 1;
    config.allowDebugSleep = true;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    SubmitMsg inflight = makeSubmit(1, 0);
    inflight.debugSleepMs = 300.0;
    ASSERT_TRUE(client.submit(inflight, error)) << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server->requestDrain();

    // A submit after drain began is shed, not queued.
    ASSERT_TRUE(client.submit(makeSubmit(2, 1), error)) << error;
    auto outcomes = collect(client, {1, 2});
    EXPECT_EQ(outcomes[1].type, ServeMsgType::Result)
        << "in-flight work must complete across drain";
    ASSERT_EQ(outcomes[2].type, ServeMsgType::Shed);
    EXPECT_EQ(outcomes[2].msg.reason, "draining");

    server->waitDrained();

    // The listener is gone: new connections are refused.
    ServeClient late;
    EXPECT_FALSE(late.connect(config.socketPath, "t", error));

    EXPECT_EQ(server->stats().shedDraining, 1);
    server->stop();
}

TEST_F(ServeTest, OverloadShedsWithExplicitReason)
{
    ServeConfig config;
    config.socketPath = testSocket("overload");
    config.workers = 1;
    config.queueCapacity = 2;
    config.allowDebugSleep = true;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    SubmitMsg blocker = makeSubmit(1, 0);
    blocker.debugSleepMs = 300.0;
    ASSERT_TRUE(client.submit(blocker, error)) << error;
    // Let the worker take the blocker so the queue starts empty.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::vector<uint64_t> ids = {1};
    for (uint64_t id = 2; id <= 6; ++id) {
        ASSERT_TRUE(client.submit(makeSubmit(id, int(id)), error))
            << error;
        ids.push_back(id);
    }
    auto outcomes = collect(client, ids);

    int results = 0, shed = 0;
    for (const uint64_t id : ids) {
        if (outcomes[id].type == ServeMsgType::Result) {
            ++results;
        } else {
            ASSERT_EQ(outcomes[id].type, ServeMsgType::Shed);
            EXPECT_EQ(outcomes[id].msg.reason, "queue_full");
            ++shed;
        }
    }
    // Two fit in the queue behind the blocker; the rest must shed.
    EXPECT_GE(shed, 3);
    EXPECT_EQ(results + shed, 6);
    EXPECT_EQ(server->stats().shedFull, shed);
    EXPECT_EQ(server->stats().completed, results);
    server->stop();
}

TEST_F(ServeTest, TenantCachesAreDisjoint)
{
    ServeConfig config;
    config.socketPath = testSocket("tenants");
    config.cacheRoot = testDir("tenants_cache");
    startServer(config);

    const auto serveOnce = [&](const std::string &tenant) {
        ServeClient client;
        std::string error;
        EXPECT_TRUE(client.connect(config.socketPath, tenant, error))
            << error;
        EXPECT_TRUE(client.submit(makeSubmit(1, 0), error)) << error;
        auto outcomes = collect(client, {1});
        EXPECT_EQ(outcomes[1].type, ServeMsgType::Result);
        return outcomes[1].msg.fromCache;
    };

    // Each tenant's first compile is cold even though the other
    // tenant already compiled the identical loop; each tenant's
    // second is a hit. Cross-tenant hits would be an isolation leak.
    EXPECT_FALSE(serveOnce("alpha"));
    EXPECT_TRUE(serveOnce("alpha"));
    EXPECT_FALSE(serveOnce("beta"));
    EXPECT_TRUE(serveOnce("beta"));

    EXPECT_TRUE(fs::is_directory(
        fs::path(config.cacheRoot) / "alpha"));
    EXPECT_TRUE(fs::is_directory(
        fs::path(config.cacheRoot) / "beta"));
    EXPECT_EQ(server->stats().cacheHits, 2);
    server->stop();
}

TEST_F(ServeTest, TwoServersShareOneCacheDirectory)
{
    // The N-server safety claim: two independent camsd processes
    // pointed at one cache directory must coexist (the entry store
    // publishes via atomic rename) and serve each other's entries.
    const std::string cacheRoot = testDir("shared_cache");
    ServeConfig configA;
    configA.socketPath = testSocket("shared_a");
    configA.cacheRoot = cacheRoot;
    ServeConfig configB;
    configB.socketPath = testSocket("shared_b");
    configB.cacheRoot = cacheRoot;

    CamsServer serverA(configA), serverB(configB);
    std::string error;
    ASSERT_TRUE(serverA.start(error)) << error;
    ASSERT_TRUE(serverB.start(error)) << error;

    // Phase 1: both servers compile the same corpus concurrently.
    const auto driveAll = [&](const std::string &socket) {
        ServeClient client;
        std::string connectError;
        ASSERT_TRUE(client.connect(socket, "t", connectError))
            << connectError;
        std::vector<uint64_t> ids;
        for (uint64_t id = 1; id <= suite.size(); ++id) {
            std::string submitError;
            ASSERT_TRUE(client.submit(makeSubmit(id, int(id - 1)),
                                      submitError))
                << submitError;
            ids.push_back(id);
        }
        auto outcomes = collect(client, ids);
        for (const uint64_t id : ids)
            EXPECT_EQ(outcomes[id].type, ServeMsgType::Result);
    };
    std::thread threadA([&] { driveAll(configA.socketPath); });
    std::thread threadB([&] { driveAll(configB.socketPath); });
    threadA.join();
    threadB.join();

    // Phase 2: a rerun against server B hits on every loop -- the
    // store survived two concurrent writers with no torn entries.
    ServeClient client;
    ASSERT_TRUE(client.connect(configB.socketPath, "t", error))
        << error;
    std::vector<uint64_t> ids;
    for (uint64_t id = 1; id <= suite.size(); ++id) {
        ASSERT_TRUE(client.submit(makeSubmit(id, int(id - 1)),
                                  error))
            << error;
        ids.push_back(id);
    }
    auto outcomes = collect(client, ids);
    for (const uint64_t id : ids) {
        ASSERT_EQ(outcomes[id].type, ServeMsgType::Result);
        EXPECT_TRUE(outcomes[id].msg.fromCache)
            << "loop " << id - 1 << " missed after both servers "
            << "populated the shared store";
    }
    EXPECT_EQ(serverA.stats().protocolErrors, 0);
    EXPECT_EQ(serverB.stats().protocolErrors, 0);
    serverA.stop();
    serverB.stop();
}

TEST_F(ServeTest, MalformedFrameGetsErrorAndClose)
{
    ServeConfig config;
    config.socketPath = testSocket("proto");
    startServer(config);

    std::string error;
    SocketFd fd = connectUnix(config.socketPath, error);
    ASSERT_TRUE(fd.valid()) << error;
    ServeStream stream;
    ASSERT_TRUE(stream.writeFrame(fd.fd(),
                                  "garbage that is no message",
                                  error))
        << error;

    std::string payload;
    ASSERT_TRUE(stream.readFrame(fd.fd(), payload, serveMaxFrameBytes,
                                 0.0, error))
        << error;
    ServerMsg msg;
    ASSERT_TRUE(decodeServerMsg(payload, msg));
    EXPECT_EQ(msg.type, ServeMsgType::Error);

    // The server closes after a protocol error.
    EXPECT_FALSE(stream.readFrame(fd.fd(), payload,
                                  serveMaxFrameBytes, 0.0, error));
    // Stats are eventually consistent with connection teardown.
    for (int i = 0; i < 50 && server->stats().protocolErrors == 0;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server->stats().protocolErrors, 1);
    server->stop();
}

TEST_F(ServeTest, ImpossibleMachineGetsErrorAndServerKeepsServing)
{
    ServeConfig config;
    config.socketPath = testSocket("badmachine");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    // A grid with a link to a cluster it does not have: the decoder
    // must refuse it instead of letting the compile end the process.
    MachineDesc bad = gridMachine(2);
    bad.links.push_back({0, 7});
    SubmitMsg submit = makeSubmit(1, 0);
    submit.machineBytes = packMachine(bad);
    ASSERT_TRUE(client.submit(submit, error)) << error;
    auto outcomes = collect(client, {1});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Error);
    EXPECT_EQ(outcomes[1].msg.message, "malformed submit payload");

    // The next request on the same connection still compiles.
    ASSERT_TRUE(client.submit(makeSubmit(2, 1), error)) << error;
    outcomes = collect(client, {2});
    EXPECT_EQ(outcomes[2].type, ServeMsgType::Result);
    server->stop();
}

TEST_F(ServeTest, HostileLoopGetsClassifiedFailureAndServerKeepsServing)
{
    ServeConfig config;
    config.socketPath = testSocket("hostileloop");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;

    // A distance-0 cycle and an overflowing latency: both used to end
    // the process inside RecMII or the II bound; each must come back
    // as a classified failure instead.
    Dfg cycle;
    cycle.addNode(Opcode::IntAlu, -1, "a");
    cycle.addNode(Opcode::IntAlu, -1, "b");
    cycle.addEdge(0, 1, 1, 0);
    cycle.addEdge(1, 0, 1, 0);
    cycle.seal();
    Dfg slow = suite[0];
    slow.addEdge(0, 1, 1000000000, 1);
    slow.seal();
    const Dfg hostile[] = {cycle, slow};
    for (uint64_t id = 1; id <= 2; ++id) {
        SubmitMsg submit = makeSubmit(id, 0);
        submit.dfgBytes = packDfg(hostile[id - 1]);
        ASSERT_TRUE(client.submit(submit, error)) << error;
        auto outcomes = collect(client, {id});
        ASSERT_EQ(outcomes[id].type, ServeMsgType::Result);
        CompileResult served;
        ByteReader reader(outcomes[id].msg.resultBytes);
        ASSERT_TRUE(readCompileResult(reader, served));
        EXPECT_FALSE(served.success);
        EXPECT_EQ(served.failure, FailureKind::InternalInvariant);
        EXPECT_NE(served.failureDetail.find("malformed input graph"),
                  std::string::npos)
            << served.failureDetail;
    }

    // The next request on the same connection still compiles.
    ASSERT_TRUE(client.submit(makeSubmit(3, 1), error)) << error;
    auto outcomes = collect(client, {3});
    ASSERT_EQ(outcomes[3].type, ServeMsgType::Result);
    CompileResult served;
    ByteReader reader(outcomes[3].msg.resultBytes);
    ASSERT_TRUE(readCompileResult(reader, served));
    EXPECT_TRUE(served.success);
    server->stop();
}

TEST(ServeProto, MachineDecoderRejectsImpossibleMachines)
{
    MachineDesc machine;
    ASSERT_TRUE(readMachine(packMachine(gridMachine(2)), machine));

    MachineDesc badLink = gridMachine(2);
    badLink.links.push_back({0, 7});
    EXPECT_FALSE(readMachine(packMachine(badLink), machine));

    MachineDesc noUnits = busedFsMachine(2, 2, 1);
    noUnits.clusters[1].fsUnits = {};
    EXPECT_FALSE(readMachine(packMachine(noUnits), machine));

    MachineDesc split = gridMachine(2);
    split.links = {{0, 1}, {2, 3}};
    EXPECT_FALSE(readMachine(packMachine(split), machine));

    MachineDesc huge = busedGpMachine(2, 2, 1);
    huge.clusters.resize(maxClusters + 1, huge.clusters[0]);
    EXPECT_FALSE(readMachine(packMachine(huge), machine));
    huge.clusters.resize(maxClusters);
    EXPECT_TRUE(readMachine(packMachine(huge), machine));
}

TEST_F(ServeTest, VersionMismatchIsRefused)
{
    ServeConfig config;
    config.socketPath = testSocket("version");
    startServer(config);

    // Version 3 framed its checksums with the byte-at-a-time hash; a
    // Hello that claims it (over today's framing) is refused by
    // version, like any other.
    for (const uint32_t version : {3u, serveProtoVersion + 7}) {
        SCOPED_TRACE(version);
        std::string error;
        SocketFd fd = connectUnix(config.socketPath, error);
        ASSERT_TRUE(fd.valid()) << error;
        HelloMsg hello;
        hello.version = version;
        hello.tenant = "t";
        ServeStream stream;
        ASSERT_TRUE(
            stream.writeFrame(fd.fd(), encodeHello(hello), error))
            << error;

        std::string payload;
        ASSERT_TRUE(stream.readFrame(fd.fd(), payload,
                                     serveMaxFrameBytes, 0.0, error))
            << error;
        ServerMsg msg;
        ASSERT_TRUE(decodeServerMsg(payload, msg));
        EXPECT_EQ(msg.type, ServeMsgType::Error);
        EXPECT_NE(msg.message.find("version mismatch"),
                  std::string::npos)
            << msg.message;
    }
    server->stop();
}

TEST_F(ServeTest, PingPongRoundTrips)
{
    ServeConfig config;
    config.socketPath = testSocket("ping");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    ASSERT_TRUE(client.ping(0xC0FFEE, error)) << error;
    ServerMsg msg;
    ASSERT_TRUE(client.readMsg(msg, error)) << error;
    EXPECT_EQ(msg.type, ServeMsgType::Pong);
    EXPECT_EQ(msg.token, 0xC0FFEEu);
    server->stop();
}

TEST(ServeProto, SanitizeTenantMapsHostileNames)
{
    EXPECT_EQ(sanitizeTenant(""), "default");
    EXPECT_EQ(sanitizeTenant("alpha-1_B"), "alpha-1_B");
    EXPECT_EQ(sanitizeTenant("../../etc"), "______etc");
    EXPECT_EQ(sanitizeTenant("a/b c"), "a_b_c");
}

TEST(ServeProto, SubmitRoundTripsThroughEncoder)
{
    SubmitMsg msg;
    msg.id = 42;
    msg.clustered = false;
    msg.scheduler = 1;
    msg.deadlineMs = 12.5;
    msg.dfgBytes = "dfg-bytes";
    msg.machineBytes = "machine-bytes";
    ClientMsg decoded;
    ASSERT_TRUE(decodeClientMsg(encodeSubmit(msg), decoded));
    EXPECT_EQ(decoded.type, ServeMsgType::Submit);
    EXPECT_EQ(decoded.submit.id, 42u);
    EXPECT_FALSE(decoded.submit.clustered);
    EXPECT_EQ(decoded.submit.scheduler, 1u);
    EXPECT_EQ(decoded.submit.deadlineMs, 12.5);
    EXPECT_EQ(decoded.submit.dfgBytes, "dfg-bytes");
    EXPECT_EQ(decoded.submit.machineBytes, "machine-bytes");
}

TEST(ServeProto, TrailingBytesAreRejected)
{
    const std::string payload = encodeCancel(7) + "x";
    ClientMsg decoded;
    EXPECT_FALSE(decodeClientMsg(payload, decoded));
}

/** Raw handshake over an explicit stream (for wire-level tests). */
bool
rawHandshake(int fd, ServeStream &stream, std::string &error)
{
    HelloMsg hello;
    hello.tenant = "t";
    if (!stream.writeFrame(fd, encodeHello(hello), error))
        return false;
    std::string payload;
    if (!stream.readFrame(fd, payload, serveMaxFrameBytes, 0.0,
                          error))
        return false;
    ServerMsg msg;
    return decodeServerMsg(payload, msg) &&
           msg.type == ServeMsgType::HelloAck;
}

TEST_F(ServeTest, CorruptedFrameIsDetectedAndRefused)
{
    ServeConfig config;
    config.socketPath = testSocket("bitflip");
    startServer(config);

    std::string error;
    SocketFd fd = connectUnix(config.socketPath, error);
    ASSERT_TRUE(fd.valid()) << error;
    ServeStream stream;
    ASSERT_TRUE(rawHandshake(fd.fd(), stream, error)) << error;

    // A frame whose checksum does not match its payload -- one
    // flipped bit on the wire -- must be refused, never decoded.
    const std::string payload = encodePing(1);
    const uint32_t length = static_cast<uint32_t>(payload.size());
    const uint64_t badSum = hashBytes(payload) ^ 1;
    std::string wire(serveFrameOverhead, '\0');
    std::memcpy(&wire[0], &length, sizeof(length));
    std::memcpy(&wire[4], &badSum, sizeof(badSum));
    wire += payload;
    ASSERT_TRUE(sendAll(fd.fd(), wire.data(), wire.size(), error))
        << error;

    std::string response;
    ASSERT_TRUE(stream.readFrame(fd.fd(), response,
                                 serveMaxFrameBytes, 0.0, error))
        << error;
    ServerMsg msg;
    ASSERT_TRUE(decodeServerMsg(response, msg));
    EXPECT_EQ(msg.type, ServeMsgType::Error);
    EXPECT_NE(msg.message.find("checksum"), std::string::npos)
        << msg.message;

    // The connection is closed: framing may be desynchronized.
    EXPECT_FALSE(stream.readFrame(fd.fd(), response,
                                  serveMaxFrameBytes, 0.0, error));
    server->stop();
}

TEST_F(ServeTest, SlowLorisPeerIsCutByReadTimeout)
{
    ServeConfig config;
    config.socketPath = testSocket("loris");
    config.readTimeoutMs = 100.0;
    startServer(config);

    std::string error;
    SocketFd fd = connectUnix(config.socketPath, error);
    ASSERT_TRUE(fd.valid()) << error;
    ServeStream stream;
    ASSERT_TRUE(rawHandshake(fd.fd(), stream, error)) << error;

    // Start a frame and stall: the mid-frame deadline must cut the
    // connection instead of wedging the reader thread forever.
    const char dribble[3] = {0x10, 0x00, 0x00};
    ASSERT_TRUE(sendAll(fd.fd(), dribble, sizeof(dribble), error))
        << error;

    std::string response;
    ASSERT_TRUE(stream.readFrame(fd.fd(), response,
                                 serveMaxFrameBytes, 0.0, error))
        << error;
    ServerMsg msg;
    ASSERT_TRUE(decodeServerMsg(response, msg));
    EXPECT_EQ(msg.type, ServeMsgType::Error);
    EXPECT_NE(msg.message.find("timed out"), std::string::npos)
        << msg.message;
    EXPECT_FALSE(stream.readFrame(fd.fd(), response,
                                  serveMaxFrameBytes, 0.0, error));
    for (int i = 0; i < 50 && server->stats().readTimeouts == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server->stats().readTimeouts, 1);
    server->stop();
}

TEST_F(ServeTest, RetriedSubmitReplaysIdenticalBytes)
{
    ServeConfig config;
    config.socketPath = testSocket("dedup");
    startServer(config);

    SubmitMsg msg = makeSubmit(1, 0);
    msg.retryKey = 0xFEEDFACE;

    std::string error;
    std::string firstBytes;
    {
        ServeClient client;
        ASSERT_TRUE(client.connect(config.socketPath, "t", error))
            << error;
        ASSERT_TRUE(client.submit(msg, error)) << error;
        auto outcomes = collect(client, {1});
        ASSERT_EQ(outcomes[1].type, ServeMsgType::Result);
        firstBytes = outcomes[1].msg.resultBytes;
    }

    // The "crashed" client reconnects and resubmits the same key:
    // the stored bytes come back verbatim, with no second compile.
    ServeClient retry;
    ASSERT_TRUE(retry.connect(config.socketPath, "t", error))
        << error;
    msg.id = 9; // a fresh connection may renumber requests
    ASSERT_TRUE(retry.submit(msg, error)) << error;
    auto outcomes = collect(retry, {9});
    ASSERT_EQ(outcomes[9].type, ServeMsgType::Result);
    EXPECT_EQ(outcomes[9].msg.resultBytes, firstBytes);

    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.compiled, 1);
    EXPECT_EQ(stats.dedupReplayed, 1);
    server->stop();
}

TEST_F(ServeTest, RetryJoinsInFlightCompile)
{
    ServeConfig config;
    config.socketPath = testSocket("dedupjoin");
    config.allowDebugSleep = true;
    startServer(config);

    SubmitMsg msg = makeSubmit(1, 0);
    msg.retryKey = 0xBEEF;
    msg.debugSleepMs = 300.0;

    std::string error;
    ServeClient first;
    ASSERT_TRUE(first.connect(config.socketPath, "t", error))
        << error;
    ASSERT_TRUE(first.submit(msg, error)) << error;

    // Wait until the request is actually running, then "retry" it
    // from a second connection while the first is still waiting.
    for (int i = 0; i < 100 && server->stats().accepted == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    ServeClient second;
    ASSERT_TRUE(second.connect(config.socketPath, "t", error))
        << error;
    SubmitMsg retry = msg;
    retry.id = 2;
    ASSERT_TRUE(second.submit(retry, error)) << error;

    auto firstOutcome = collect(first, {1});
    auto secondOutcome = collect(second, {2});
    ASSERT_EQ(firstOutcome[1].type, ServeMsgType::Result);
    ASSERT_EQ(secondOutcome[2].type, ServeMsgType::Result);
    EXPECT_EQ(firstOutcome[1].msg.resultBytes,
              secondOutcome[2].msg.resultBytes);

    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.compiled, 1);
    EXPECT_EQ(stats.dedupJoined, 1);
    server->stop();
}

TEST_F(ServeTest, KeyedWorkSurvivesClientDisconnect)
{
    ServeConfig config;
    config.socketPath = testSocket("orphan");
    config.allowDebugSleep = true;
    startServer(config);

    SubmitMsg msg = makeSubmit(1, 0);
    msg.retryKey = 0xD15C;
    msg.debugSleepMs = 200.0;

    std::string error;
    {
        ServeClient doomed;
        ASSERT_TRUE(doomed.connect(config.socketPath, "t", error))
            << error;
        ASSERT_TRUE(doomed.submit(msg, error)) << error;
        for (int i = 0; i < 100 && server->stats().accepted == 0;
             ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        // The client dies mid-compile. Keyed work must finish into
        // the dedup table instead of being cancelled.
    }

    ServeClient back;
    ASSERT_TRUE(back.connect(config.socketPath, "t", error))
        << error;
    SubmitMsg retry = msg;
    retry.id = 5;
    ASSERT_TRUE(back.submit(retry, error)) << error;
    auto outcomes = collect(back, {5});
    ASSERT_EQ(outcomes[5].type, ServeMsgType::Result);

    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.compiled, 1);
    EXPECT_EQ(stats.dedupReplayed + stats.dedupJoined, 1);
    server->stop();
}

TEST_F(ServeTest, WatchdogAnswersHungCompile)
{
    ServeConfig config;
    config.socketPath = testSocket("watchdog");
    config.allowDebugSleep = true;
    config.watchdogMs = 100.0;
    startServer(config);

    SubmitMsg msg = makeSubmit(1, 0);
    msg.debugSleepMs = 10000.0; // "hung" far beyond the watchdog

    std::string error;
    ServeClient client;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    ASSERT_TRUE(client.submit(msg, error)) << error;
    auto outcomes = collect(client, {1});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Result);

    CompileResult served;
    ByteReader reader(outcomes[1].msg.resultBytes);
    ASSERT_TRUE(readCompileResult(reader, served));
    EXPECT_EQ(served.failure, FailureKind::Timeout);
    EXPECT_NE(served.failureDetail.find("watchdog"),
              std::string::npos)
        << served.failureDetail;
    EXPECT_EQ(server->stats().watchdogFired, 1);
    server->stop();
}

TEST_F(ServeTest, CamsClientReconnectsAcrossServerRestart)
{
    ServeConfig config;
    config.socketPath = testSocket("restart");

    auto serverA = std::make_unique<CamsServer>(config);
    std::string error;
    ASSERT_TRUE(serverA->start(error)) << error;

    CamsClient client;
    CamsClientConfig clientConfig;
    clientConfig.socketPath = config.socketPath;
    clientConfig.tenant = "t";
    clientConfig.retry.initialBackoffMs = 5.0;
    ASSERT_TRUE(client.start(clientConfig, error)) << error;

    ServerMsg out;
    SubmitMsg first = makeSubmit(1, 0);
    ASSERT_TRUE(client.compile(first, out, error)) << error;
    ASSERT_EQ(out.type, ServeMsgType::Result);
    const std::string bytesA = out.resultBytes;

    // Take the server down and bring a fresh one up on the same
    // socket; the client must ride the outage transparently.
    serverA->stop();
    serverA.reset();
    std::thread restarter([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(200));
        server = std::make_unique<CamsServer>(config);
        std::string startError;
        ASSERT_TRUE(server->start(startError)) << startError;
    });

    SubmitMsg second = makeSubmit(2, 0);
    ASSERT_TRUE(client.compile(second, out, error)) << error;
    restarter.join();
    ASSERT_EQ(out.type, ServeMsgType::Result);
    EXPECT_EQ(out.resultBytes.size(), bytesA.size());
    EXPECT_GE(client.stats().reconnects, 1);
    client.close();
    server->stop();
}

TEST_F(ServeTest, ChaosCompilesStayByteIdentical)
{
    ServeConfig config;
    config.socketPath = testSocket("chaos");
    config.readTimeoutMs = 300.0;
    config.chaos = ChaosConfig::uniform(0.05, 7);
    config.chaos.stallMs = 20.0;
    startServer(config);

    CamsClient client;
    CamsClientConfig clientConfig;
    clientConfig.socketPath = config.socketPath;
    clientConfig.tenant = "t";
    clientConfig.retry.initialBackoffMs = 2.0;
    clientConfig.retry.readTimeoutMs = 500.0;
    clientConfig.retry.retryOnShed = true;
    clientConfig.chaos = ChaosConfig::uniform(0.05, 9);
    clientConfig.chaos.stallMs = 20.0;
    std::string error;
    ASSERT_TRUE(client.start(clientConfig, error)) << error;

    CompileOptions options;
    options.timeBudgetMs = config.compileBudgetMs;
    for (uint64_t id = 1; id <= 24; ++id) {
        SubmitMsg msg = makeSubmit(id, int(id % suite.size()));
        ServerMsg out;
        ASSERT_TRUE(client.compile(msg, out, error))
            << "id " << id << ": " << error;
        ASSERT_EQ(out.type, ServeMsgType::Result) << "id " << id;
        CompileResult served;
        ByteReader reader(out.resultBytes);
        ASSERT_TRUE(readCompileResult(reader, served));
        const CompileResult local = compileClustered(
            suite[id % suite.size()], machine, options);
        EXPECT_EQ(canonicalBytes(served), canonicalBytes(local))
            << "id " << id;
    }
    client.close();
    server->stop();
}

TEST_F(ServeTest, StatsEndpointReportsWindowedLatency)
{
    ServeConfig config;
    config.socketPath = testSocket("stats");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    std::vector<uint64_t> ids;
    for (uint64_t id = 1; id <= suite.size(); ++id) {
        ASSERT_TRUE(client.submit(makeSubmit(id, int(id - 1)),
                                  error))
            << error;
        ids.push_back(id);
    }
    auto outcomes = collect(client, ids);
    for (const uint64_t id : ids)
        ASSERT_EQ(outcomes[id].type, ServeMsgType::Result);

    // Poll on a dedicated monitoring connection, like cams_top does.
    ServeClient monitor;
    ASSERT_TRUE(monitor.connect(config.socketPath, "mon", error))
        << error;
    StatsReplyMsg stats;
    ASSERT_TRUE(monitor.stats(stats, error)) << error;

    EXPECT_GT(stats.uptimeSeconds, 0.0);
    EXPECT_EQ(stats.workers,
              static_cast<uint32_t>(config.workers));
    EXPECT_EQ(stats.queueCapacity,
              static_cast<uint32_t>(config.queueCapacity));
    EXPECT_FALSE(stats.draining);
    EXPECT_EQ(stats.inFlight, 0u);

    const auto counter = [&](const std::string &name)
        -> const StatsCounter * {
        for (const StatsCounter &c : stats.counters)
            if (c.name == name)
                return &c;
        return nullptr;
    };
    const StatsCounter *completed = counter("serve.completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(completed->total,
              static_cast<int64_t>(suite.size()));
    // The compiles just happened, so the whole story is inside the
    // 1-minute window.
    EXPECT_EQ(completed->last1m, completed->total);

    const auto histogram = [&](const std::string &name)
        -> const StatsHistogram * {
        for (const StatsHistogram &h : stats.histograms)
            if (h.name == name)
                return &h;
        return nullptr;
    };
    const StatsHistogram *compileMs =
        histogram("serve.compile_ms");
    ASSERT_NE(compileMs, nullptr);
    EXPECT_EQ(compileMs->total.count, suite.size());
    EXPECT_EQ(compileMs->last1m.count, suite.size());
    EXPECT_LE(compileMs->last1m.p50, compileMs->last1m.p99);
    const StatsHistogram *queueDepth =
        histogram("serve.queue_depth");
    ASSERT_NE(queueDepth, nullptr);
    EXPECT_EQ(queueDepth->total.count, suite.size());

    bool sawTenant = false;
    for (const TenantStats &tenant : stats.tenants) {
        if (tenant.tenant != "t")
            continue;
        sawTenant = true;
        EXPECT_EQ(tenant.submitted,
                  static_cast<int64_t>(suite.size()));
        EXPECT_EQ(tenant.completed,
                  static_cast<int64_t>(suite.size()));
        EXPECT_EQ(tenant.shed, 0);
    }
    EXPECT_TRUE(sawTenant);
    server->stop();
}

TEST_F(ServeTest, HealthReplyTracksDrainState)
{
    ServeConfig config;
    config.socketPath = testSocket("health");
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    HealthReplyMsg health;
    ASSERT_TRUE(client.health(health, error)) << error;
    EXPECT_EQ(health.status, "ok");
    EXPECT_EQ(health.version, serveProtoVersion);
    EXPECT_EQ(health.queueDepth, 0u);
    EXPECT_EQ(health.queueCapacity,
              static_cast<uint32_t>(config.queueCapacity));

    server->requestDrain();
    ASSERT_TRUE(client.health(health, error)) << error;
    EXPECT_EQ(health.status, "draining");
    server->waitDrained();
    server->stop();
}

TEST_F(ServeTest, SampledTraceCorrelatesAcrossProcessBoundary)
{
    TraceSink sink(TraceLevel::Phase, 1024);
    ServeConfig config;
    config.socketPath = testSocket("reqtrace");
    config.traceSink = &sink;
    startServer(config);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(config.socketPath, "t", error))
        << error;
    SubmitMsg sampled = makeSubmit(1, 0);
    sampled.traceId = 424243;
    sampled.traceSampled = true;
    SubmitMsg unsampled = makeSubmit(2, 1);
    unsampled.traceId = 777777;
    unsampled.traceSampled = false;
    ASSERT_TRUE(client.submit(sampled, error)) << error;
    ASSERT_TRUE(client.submit(unsampled, error)) << error;
    auto outcomes = collect(client, {1, 2});
    ASSERT_EQ(outcomes[1].type, ServeMsgType::Result);
    ASSERT_EQ(outcomes[2].type, ServeMsgType::Result);
    server->stop();

    // The sampled request reads as one correlated story under its
    // client-chosen id: admission instant, back-dated queue wait,
    // and the compile scope (which prefixes the driver's own phase
    // scopes). The unsampled request left no events at all.
    bool sawAdmitted = false;
    bool sawQueueWait = false;
    bool sawCompile = false;
    for (const TraceEvent &event : sink.snapshot()) {
        EXPECT_EQ(event.name.find("req-777777"), std::string::npos)
            << event.name;
        if (event.name.rfind("req-424243/", 0) != 0)
            continue;
        const std::string step = event.name.substr(
            std::string("req-424243/").size());
        if (step == "admitted") {
            sawAdmitted = true;
            EXPECT_EQ(event.phase, 'i');
        } else if (step == "queue_wait") {
            sawQueueWait = true;
            EXPECT_EQ(event.phase, 'X');
        } else if (step == "serve_compile") {
            sawCompile = true;
            EXPECT_EQ(event.phase, 'X');
        }
    }
    EXPECT_TRUE(sawAdmitted);
    EXPECT_TRUE(sawQueueWait);
    EXPECT_TRUE(sawCompile);
}

} // namespace
} // namespace cams
