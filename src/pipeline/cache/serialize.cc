#include "pipeline/cache/serialize.hh"

#include <bit>
#include <cstring>
#include <limits>
#include <vector>

namespace cams
{

namespace
{

/** Fewest image bytes of one node (op, latency, name length) and of
 *  one edge (src, dst, latency, distance). */
constexpr size_t nodeMinBytes = 4 + 8 + 8;
constexpr size_t edgeBytes = 4 * 8;

/** A latency or distance that survives the narrowing to int. */
bool
inIntRange(int64_t value)
{
    return value >= 0 && value <= std::numeric_limits<int>::max();
}

/** Reads an i64 field into an int; false outside int's range, where
 *  narrowing would change the value and the re-packed bytes. */
bool
readInt(ByteReader &r, int &out)
{
    int64_t value = 0;
    if (!r.i64(value) || value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(value);
    return true;
}

/** Size of packDfg's image of @p graph. */
size_t
dfgImageSize(const Dfg &graph)
{
    size_t size = 8 + graph.name().size() + 8 + 8 +
                  edgeBytes * static_cast<size_t>(graph.numEdges());
    for (const DfgNode &node : graph.nodes())
        size += nodeMinBytes + node.name.size();
    return size;
}

/** Appends packDfg's image of @p graph. */
void
writeDfg(ByteWriter &w, const Dfg &graph)
{
    w.str(graph.name());
    w.u64(graph.numNodes());
    for (const DfgNode &node : graph.nodes()) {
        w.u32(static_cast<uint32_t>(node.op));
        w.i64(node.latency);
        w.str(node.name);
    }
    w.u64(graph.numEdges());
    for (const DfgEdge &edge : graph.edges()) {
        w.i64(edge.src);
        w.i64(edge.dst);
        w.i64(edge.latency);
        w.i64(edge.distance);
    }
}

} // namespace

void
ByteWriter::put(uint64_t value, size_t width)
{
    char bytes[8];
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, sizeof(bytes));
    } else {
        for (size_t i = 0; i < sizeof(bytes); ++i)
            bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    out_.append(bytes, width);
}

void
ByteWriter::f64(double value)
{
    u64(std::bit_cast<uint64_t>(value));
}

void
ByteWriter::str(std::string_view value)
{
    u64(value.size());
    out_.append(value);
}

bool
ByteReader::take(size_t count, const char *&out)
{
    if (!ok_ || bytes_.size() - pos_ < count) {
        ok_ = false;
        return false;
    }
    out = bytes_.data() + pos_;
    pos_ += count;
    return true;
}

bool
ByteReader::u32(uint32_t &out)
{
    const char *p = nullptr;
    if (!take(4, p))
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= uint32_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return true;
}

bool
ByteReader::u64(uint64_t &out)
{
    const char *p = nullptr;
    if (!take(8, p))
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return true;
}

bool
ByteReader::i64(int64_t &out)
{
    uint64_t raw = 0;
    if (!u64(raw))
        return false;
    out = static_cast<int64_t>(raw);
    return true;
}

bool
ByteReader::f64(double &out)
{
    uint64_t raw = 0;
    if (!u64(raw))
        return false;
    out = std::bit_cast<double>(raw);
    return true;
}

bool
ByteReader::view(std::string_view &out)
{
    uint64_t size = 0;
    const char *p = nullptr;
    if (!count(size, 1) || !take(static_cast<size_t>(size), p))
        return false;
    out = std::string_view(p, static_cast<size_t>(size));
    return true;
}

bool
ByteReader::str(std::string &out)
{
    std::string_view bytes;
    if (!view(bytes))
        return false;
    out.assign(bytes);
    return true;
}

bool
ByteReader::count(uint64_t &out, size_t minBytes)
{
    if (!u64(out) || out > (bytes_.size() - pos_) / minBytes) {
        ok_ = false;
        return false;
    }
    return true;
}

std::string
packDfg(const Dfg &graph)
{
    ByteWriter w;
    w.reserve(dfgImageSize(graph));
    writeDfg(w, graph);
    return w.take();
}

bool
readDfg(std::string_view bytes, Dfg &out)
{
    ByteReader r(bytes);
    Dfg graph;
    std::string_view name;
    uint64_t nodes = 0;
    if (!r.view(name) || !r.count(nodes, nodeMinBytes))
        return false;
    graph.setName(std::string(name));
    graph.reserve(static_cast<int>(nodes), 0);
    for (uint64_t i = 0; i < nodes; ++i) {
        uint32_t op = 0;
        int64_t latency = 0;
        std::string_view node_name;
        if (!r.u32(op) || op >= uint32_t(numOpcodes) ||
            !r.i64(latency) || !inIntRange(latency) ||
            !r.view(node_name)) {
            return false;
        }
        graph.addNode(static_cast<Opcode>(op),
                      static_cast<int>(latency),
                      std::string(node_name));
    }

    // One pass: out is assigned only on success.
    uint64_t edges = 0;
    if (!r.count(edges, edgeBytes))
        return false;
    graph.reserve(static_cast<int>(nodes), static_cast<int>(edges));
    for (uint64_t i = 0; i < edges; ++i) {
        int64_t src = 0, dst = 0, latency = 0, distance = 0;
        if (!r.i64(src) || !r.i64(dst) || !r.i64(latency) ||
            !r.i64(distance)) {
            return false;
        }
        if (src < 0 || src >= int64_t(nodes) || dst < 0 ||
            dst >= int64_t(nodes) || !inIntRange(latency) ||
            !inIntRange(distance)) {
            return false;
        }
        graph.addEdge(static_cast<NodeId>(src),
                      static_cast<NodeId>(dst),
                      static_cast<int>(latency),
                      static_cast<int>(distance));
    }
    if (!r.atEnd())
        return false;
    graph.seal();
    out = std::move(graph);
    return true;
}

std::string
packMachine(const MachineDesc &machine)
{
    ByteWriter w;
    w.reserve(8 + machine.name.size() + 4 + 8 + 8 +
              8 * (3 + numFuClasses) * machine.clusters.size() + 8 +
              16 * machine.links.size());
    w.str(machine.name);
    w.u32(static_cast<uint32_t>(machine.interconnect));
    w.i64(machine.numBuses);
    w.u64(machine.clusters.size());
    for (const ClusterDesc &cluster : machine.clusters) {
        w.i64(cluster.gpUnits);
        for (const int units : cluster.fsUnits)
            w.i64(units);
        w.i64(cluster.readPorts);
        w.i64(cluster.writePorts);
    }
    w.u64(machine.links.size());
    for (const LinkDesc &link : machine.links) {
        w.i64(link.a);
        w.i64(link.b);
    }
    return w.take();
}

bool
readMachine(std::string_view bytes, MachineDesc &out)
{
    ByteReader r(bytes);
    MachineDesc machine;
    uint32_t interconnect = 0;
    uint64_t clusters = 0;
    if (!r.str(machine.name) || !r.u32(interconnect) ||
        interconnect > uint32_t(InterconnectKind::PointToPoint) ||
        !readInt(r, machine.numBuses) || !r.u64(clusters) ||
        clusters > static_cast<uint64_t>(maxClusters)) {
        return false;
    }
    machine.interconnect = static_cast<InterconnectKind>(interconnect);
    machine.clusters.resize(static_cast<size_t>(clusters));
    for (ClusterDesc &cluster : machine.clusters) {
        if (!readInt(r, cluster.gpUnits))
            return false;
        for (int &units : cluster.fsUnits) {
            if (!readInt(r, units))
                return false;
        }
        if (!readInt(r, cluster.readPorts) ||
            !readInt(r, cluster.writePorts))
            return false;
    }
    uint64_t links = 0;
    if (!r.count(links, 2 * 8))
        return false;
    machine.links.resize(static_cast<size_t>(links));
    for (LinkDesc &link : machine.links) {
        if (!readInt(r, link.a) || !readInt(r, link.b))
            return false;
    }
    // Outside bytes may describe an impossible machine; refuse it here
    // rather than let ResourceModel's validate() end the process.
    if (!r.atEnd() || !machine.validationError().empty())
        return false;
    out = std::move(machine);
    return true;
}

void
writeCompileResult(ByteWriter &w, const CompileResult &result)
{
    // Room for the graph, the lists and the fixed fields, so the image
    // grows in place.
    const size_t graph_bytes = dfgImageSize(result.loop.graph);
    w.reserve(graph_bytes + 24 * result.loop.placement.size() +
              8 * result.schedule.startCycle.size() +
              result.failureDetail.size() + 256);
    w.u32(result.success ? 1 : 0);
    w.i64(result.ii);
    w.i64(result.mii.recMii);
    w.i64(result.mii.resMii);
    w.i64(result.mii.mii);

    w.u64(graph_bytes);
    writeDfg(w, result.loop.graph);
    w.i64(result.loop.numOriginalNodes);
    w.u64(result.loop.placement.size());
    for (const OpPlacement &place : result.loop.placement) {
        w.i64(place.cluster);
        w.u64(place.copyDsts.size());
        for (const ClusterId dst : place.copyDsts)
            w.i64(dst);
    }

    w.i64(result.schedule.ii);
    w.u64(result.schedule.startCycle.size());
    for (const int cycle : result.schedule.startCycle)
        w.i64(cycle);

    w.i64(result.copies);
    w.i64(result.attempts);
    w.i64(result.assignRetries);
    w.i64(result.evictions);
    w.u32(static_cast<uint32_t>(result.failure));
    w.str(result.failureDetail);
    w.i64(result.finalIiTried);
    w.u32(static_cast<uint32_t>(result.degraded));
    w.i64(result.invariantRecoveries);
    w.i64(result.verifierRejects);
    w.i64(result.faultTrips);
    w.f64(result.phaseMs.orderMs);
    w.f64(result.phaseMs.assignMs);
    w.f64(result.phaseMs.routeMs);
    w.f64(result.phaseMs.scheduleMs);
    w.f64(result.phaseMs.verifyMs);
    w.f64(result.phaseMs.totalMs);
    w.i64(result.ctxHits);
    w.i64(result.ctxMisses);
    w.i64(result.mrtWordScans);
}

bool
readCompileResult(ByteReader &r, CompileResult &out)
{
    CompileResult result;
    uint32_t success = 0;
    std::string_view graph_bytes;
    uint64_t placements = 0;
    if (!r.u32(success) || success > 1 || !readInt(r, result.ii) ||
        !readInt(r, result.mii.recMii) ||
        !readInt(r, result.mii.resMii) || !readInt(r, result.mii.mii) ||
        !r.view(graph_bytes) ||
        !readDfg(graph_bytes, result.loop.graph) ||
        !readInt(r, result.loop.numOriginalNodes) ||
        !r.count(placements, 2 * 8)) {
        return false;
    }
    result.success = success != 0;
    result.loop.placement.resize(static_cast<size_t>(placements));
    for (OpPlacement &place : result.loop.placement) {
        uint64_t dsts = 0;
        if (!readInt(r, place.cluster) || !r.count(dsts, 8))
            return false;
        place.copyDsts.resize(static_cast<size_t>(dsts));
        for (ClusterId &dst : place.copyDsts) {
            if (!readInt(r, dst))
                return false;
        }
    }

    uint64_t cycles = 0;
    if (!readInt(r, result.schedule.ii) || !r.count(cycles, 8))
        return false;
    result.schedule.startCycle.resize(static_cast<size_t>(cycles));
    for (int &cycle : result.schedule.startCycle) {
        if (!readInt(r, cycle))
            return false;
    }

    uint32_t failure = 0;
    uint32_t degraded = 0;
    int64_t trips = 0, ctx_hits = 0, ctx_misses = 0, word_scans = 0;
    if (!readInt(r, result.copies) || !readInt(r, result.attempts) ||
        !readInt(r, result.assignRetries) ||
        !readInt(r, result.evictions) || !r.u32(failure) ||
        failure >= uint32_t(numFailureKinds) ||
        !r.str(result.failureDetail) ||
        !readInt(r, result.finalIiTried) || !r.u32(degraded) ||
        degraded > uint32_t(DegradeLevel::SingleCluster) ||
        !readInt(r, result.invariantRecoveries) ||
        !readInt(r, result.verifierRejects) || !r.i64(trips) ||
        !r.f64(result.phaseMs.orderMs) ||
        !r.f64(result.phaseMs.assignMs) ||
        !r.f64(result.phaseMs.routeMs) ||
        !r.f64(result.phaseMs.scheduleMs) ||
        !r.f64(result.phaseMs.verifyMs) ||
        !r.f64(result.phaseMs.totalMs) || !r.i64(ctx_hits) ||
        !r.i64(ctx_misses) || !r.i64(word_scans)) {
        return false;
    }
    result.failure = static_cast<FailureKind>(failure);
    result.degraded = static_cast<DegradeLevel>(degraded);
    result.faultTrips = trips;
    result.ctxHits = ctx_hits;
    result.ctxMisses = ctx_misses;
    result.mrtWordScans = word_scans;
    out = std::move(result);
    return true;
}

} // namespace cams
