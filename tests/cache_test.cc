/**
 * @file
 * Tests of the persistent compile cache: canonical-hash invariance
 * under node renumbering, the byte hash's sensitivity to every
 * single-bit flip and its pinned values, the exact-match gate that
 * keeps isomorphic renumberings from being served someone else's node
 * ids, binary round-trips of CompileResult, byte-identical graph,
 * machine and result images, decoders that refuse non-canonical
 * images, rejection of version-mismatched and truncated entries,
 * concurrent read/write through the batch thread pool, and the
 * scrub's quarantine of torn and bit-rotted entries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <vector>

#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/cache/hash.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/driver.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir.string();
}

/** A small loop with a recurrence and distinct opcode mix. */
Dfg
sampleLoop()
{
    Dfg graph;
    graph.setName("sample");
    const NodeId load = graph.addNode(Opcode::Load);
    const NodeId mul = graph.addNode(Opcode::FpMult);
    const NodeId add = graph.addNode(Opcode::IntAlu);
    const NodeId store = graph.addNode(Opcode::Store);
    graph.addEdge(load, mul);
    graph.addEdge(mul, add);
    graph.addEdge(add, store);
    graph.addEdge(add, mul, -1, 1); // recurrence
    graph.seal();
    return graph;
}

/** Rebuilds a graph with nodes added in permuted order (and fresh
 *  names): isomorphic, but every node id differs. perm[i] is the old
 *  id that becomes new id i. */
Dfg
permuted(const Dfg &graph, const std::vector<NodeId> &perm)
{
    Dfg out;
    out.setName("permuted");
    std::vector<NodeId> newId(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
        const DfgNode &node = graph.node(perm[i]);
        newId[perm[i]] = out.addNode(node.op, node.latency,
                                     "p" + std::to_string(i));
    }
    for (int e = 0; e < graph.numEdges(); ++e) {
        const DfgEdge &edge = graph.edge(e);
        out.addEdge(newId[edge.src], newId[edge.dst], edge.latency,
                    edge.distance);
    }
    out.seal();
    return out;
}

TEST(CacheHash, InvariantUnderRenumbering)
{
    const Dfg graph = sampleLoop();
    const uint64_t h = canonicalLoopHash(graph);
    EXPECT_EQ(h, canonicalLoopHash(permuted(graph, {3, 1, 0, 2})));
    EXPECT_EQ(h, canonicalLoopHash(permuted(graph, {2, 3, 1, 0})));

    // Structure changes move the hash: a different opcode...
    Dfg other = permuted(graph, {0, 1, 2, 3});
    other.node(1).op = Opcode::IntAlu;
    EXPECT_NE(h, canonicalLoopHash(other));
    // ...or a different dependence distance.
    Dfg far = sampleLoop();
    far.addEdge(0, 3, -1, 2);
    far.seal();
    EXPECT_NE(h, canonicalLoopHash(far));
}

TEST(CacheHash, NamesDoNotParticipate)
{
    Dfg named = sampleLoop();
    named.setName("completely-different");
    named.node(0).name = "renamed";
    EXPECT_EQ(canonicalLoopHash(sampleLoop()),
              canonicalLoopHash(named));
}

TEST(CacheSerialize, DfgRoundTripPreservesIds)
{
    // Anonymous and duplicate-named nodes round-trip exactly -- the
    // property the text format cannot provide.
    Dfg graph;
    graph.addNode(Opcode::Load, -1, "dup");
    graph.addNode(Opcode::IntAlu, -1, "dup");
    graph.addNode(Opcode::Store); // anonymous
    graph.addEdge(0, 1);
    graph.addEdge(1, 2, 7, 3);

    Dfg back;
    ASSERT_TRUE(readDfg(packDfg(graph), back));
    ASSERT_EQ(back.numNodes(), graph.numNodes());
    ASSERT_EQ(back.numEdges(), graph.numEdges());
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        EXPECT_EQ(back.node(v).op, graph.node(v).op);
        EXPECT_EQ(back.node(v).latency, graph.node(v).latency);
        EXPECT_EQ(back.node(v).name, graph.node(v).name);
    }
    for (int e = 0; e < graph.numEdges(); ++e) {
        EXPECT_EQ(back.edge(e).src, graph.edge(e).src);
        EXPECT_EQ(back.edge(e).dst, graph.edge(e).dst);
        EXPECT_EQ(back.edge(e).latency, graph.edge(e).latency);
        EXPECT_EQ(back.edge(e).distance, graph.edge(e).distance);
    }
    EXPECT_EQ(packDfg(back), packDfg(graph));
}

/** Overwrites the i64 at @p at with @p value. */
std::string
patchI64(std::string bytes, size_t at, int64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>(uint64_t(value) >> (8 * i));
    return bytes;
}

/** Reads the i64 at @p at. */
int64_t
peekI64(const std::string &bytes, size_t at)
{
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |=
            uint64_t(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
    return static_cast<int64_t>(value);
}

TEST(CacheSerialize, DfgReaderRejectsValuesOutsideInt)
{
    // Patches the last edge's latency or distance field (the final
    // 16 bytes of the image) with a raw 64-bit value.
    Dfg graph;
    graph.addNode(Opcode::Load);
    graph.addNode(Opcode::IntAlu);
    graph.addEdge(0, 1, 3, 1);
    const std::string image = packDfg(graph);
    auto patched = [&](int field, int64_t value) {
        return patchI64(image, image.size() - 16 + 8 * field, value);
    };
    Dfg back;
    for (int field = 0; field < 2; ++field) {
        SCOPED_TRACE(field == 0 ? "latency" : "distance");
        ASSERT_TRUE(readDfg(patched(field, INT32_MAX), back));
        EXPECT_EQ(field == 0 ? back.edge(0).latency
                             : back.edge(0).distance,
                  INT32_MAX);
        // 2^32 + 3 used to narrow silently to 3.
        EXPECT_FALSE(readDfg(patched(field, (int64_t(1) << 32) + 3),
                             back));
        EXPECT_FALSE(readDfg(patched(field, int64_t(INT32_MAX) + 1),
                             back));
        EXPECT_FALSE(readDfg(patched(field, -1), back));
    }
}

TEST(CacheSerialize, CompileResultRoundTrip)
{
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    ASSERT_TRUE(result.success);

    ByteWriter writer;
    writeCompileResult(writer, result);
    const std::string bytes = writer.take();

    ByteReader reader(bytes);
    CompileResult back;
    ASSERT_TRUE(readCompileResult(reader, back));
    ASSERT_TRUE(reader.atEnd());

    EXPECT_EQ(back.success, result.success);
    EXPECT_EQ(back.ii, result.ii);
    EXPECT_EQ(back.mii.mii, result.mii.mii);
    EXPECT_EQ(back.mii.recMii, result.mii.recMii);
    EXPECT_EQ(back.mii.resMii, result.mii.resMii);
    EXPECT_EQ(back.copies, result.copies);
    EXPECT_EQ(back.attempts, result.attempts);
    EXPECT_EQ(back.evictions, result.evictions);
    EXPECT_EQ(back.failure, result.failure);
    EXPECT_EQ(back.degraded, result.degraded);
    EXPECT_EQ(back.ctxHits, result.ctxHits);
    EXPECT_EQ(back.mrtWordScans, result.mrtWordScans);
    EXPECT_EQ(back.phaseMs.totalMs, result.phaseMs.totalMs);
    EXPECT_EQ(back.schedule.ii, result.schedule.ii);
    EXPECT_EQ(back.schedule.startCycle, result.schedule.startCycle);
    EXPECT_EQ(packDfg(back.loop.graph), packDfg(result.loop.graph));
    ASSERT_EQ(back.loop.placement.size(), result.loop.placement.size());
    for (size_t i = 0; i < result.loop.placement.size(); ++i) {
        EXPECT_EQ(back.loop.placement[i].cluster,
                  result.loop.placement[i].cluster);
        EXPECT_EQ(back.loop.placement[i].copyDsts,
                  result.loop.placement[i].copyDsts);
    }
    // Transient cache flags never travel.
    EXPECT_FALSE(back.fromCache);
    EXPECT_FALSE(back.cacheProbed);
}

TEST(CacheSerialize, ReaderRejectsTruncation)
{
    ByteWriter writer;
    writer.u64(42);
    writer.str("hello");
    const std::string bytes = writer.take();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        // The reader keeps a reference: the prefix must outlive it.
        const std::string prefix = bytes.substr(0, cut);
        ByteReader reader(prefix);
        uint64_t v = 0;
        std::string s;
        EXPECT_FALSE(reader.u64(v) && reader.str(s) && reader.atEnd())
            << "accepted a " << cut << "-byte truncation";
    }
}

TEST(CacheHash, EverySingleBitFlipChangesTheSum)
{
    // Each step of hashBytes is a bijection of the state and of the
    // word, so a flip anywhere in a string of fixed length must move
    // the sum; this checks it over every bit of every length up to
    // nine words and of one 4 KiB buffer.
    auto flips = [](size_t size) {
        std::string bytes(size, '\0');
        for (size_t i = 0; i < size; ++i)
            bytes[i] = static_cast<char>(i * 37 + 11);
        const uint64_t sum = hashBytes(bytes);
        for (size_t bit = 0; bit < 8 * size; ++bit) {
            bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
            EXPECT_NE(hashBytes(bytes), sum)
                << "bit " << bit << " of " << size << " bytes";
            bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        }
    };
    for (size_t size = 1; size <= 72; ++size)
        flips(size);
    flips(4096);
}

TEST(CacheHash, ZeroStringsOfEachLengthDiffer)
{
    std::set<uint64_t> sums;
    for (size_t size = 0; size <= 16; ++size)
        sums.insert(hashBytes(std::string(size, '\0')));
    EXPECT_EQ(sums.size(), 17u);
}

TEST(CacheHash, PinnedValues)
{
    // Entry checksums, machine hashes and wire-frame checksums are
    // hashBytes values. A change here must come with a bump of both
    // entryFormatVersion (compile_cache.cc) and serveProtoVersion.
    EXPECT_EQ(hashBytes(""), 0xc3817c016ba4ff30ULL);
    EXPECT_EQ(hashBytes("The quick brown fox jumps over the lazy dog"),
              0xada35a4aaae673acULL);
}

/** Lower-case hex of a byte string. */
std::string
toHex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        hex.push_back(digits[(static_cast<unsigned char>(c) >> 4) & 0xf]);
        hex.push_back(digits[static_cast<unsigned char>(c) & 0xf]);
    }
    return hex;
}

/** A nine-node loop whose compile on 2c-gp-2b-1p needs two copies. */
Dfg
pinnedLoop()
{
    Dfg graph;
    graph.setName("pinned");
    const NodeId a = graph.addNode(Opcode::Load, -1, "a");
    const NodeId b = graph.addNode(Opcode::Load, -1, "b");
    const NodeId m = graph.addNode(Opcode::FpMult, -1, "m");
    const NodeId s = graph.addNode(Opcode::FpAdd, -1, "s");
    const NodeId i = graph.addNode(Opcode::IntAlu, -1, "i");
    const NodeId c = graph.addNode(Opcode::Load, -1, "c");
    const NodeId d = graph.addNode(Opcode::FpMult, -1, "d");
    const NodeId t = graph.addNode(Opcode::FpAdd, -1, "t");
    const NodeId st = graph.addNode(Opcode::Store, -1, "st");
    graph.addEdge(a, m);
    graph.addEdge(b, m);
    graph.addEdge(m, s);
    graph.addEdge(s, s, -1, 1);
    graph.addEdge(i, i, -1, 1);
    graph.addEdge(i, a);
    graph.addEdge(i, b);
    graph.addEdge(i, c);
    graph.addEdge(c, d);
    graph.addEdge(d, t);
    graph.addEdge(s, t);
    graph.addEdge(t, st);
    graph.addEdge(i, st);
    graph.seal();
    return graph;
}

TEST(CacheSerialize, ImagesAreByteIdentical)
{
    // Recorded before the writer appended whole words: the graph,
    // machine and result images (wall times zeroed) must not move.
    // The result's ctxHits and ctxMisses (5 and 12, near its end)
    // count LoopContext queries, so they move only when the context
    // caches a different set of analyses.
    const char *const dfgHex =
    "060000000000000070696e6e6564090000000000000004000000020000000000"
    "0000010000000000000061040000000200000000000000010000000000000062"
    "06000000030000000000000001000000000000006d0500000001000000000000"
    "0001000000000000007300000000010000000000000001000000000000006904"
    "0000000200000000000000010000000000000063060000000300000000000000"
    "0100000000000000640500000001000000000000000100000000000000740300"
    "00000100000000000000020000000000000073740d0000000000000000000000"
    "0000000002000000000000000200000000000000000000000000000001000000"
    "0000000002000000000000000200000000000000000000000000000002000000"
    "0000000003000000000000000300000000000000000000000000000003000000"
    "0000000003000000000000000100000000000000010000000000000004000000"
    "0000000004000000000000000100000000000000010000000000000004000000"
    "0000000000000000000000000100000000000000000000000000000004000000"
    "0000000001000000000000000100000000000000000000000000000004000000"
    "0000000005000000000000000100000000000000000000000000000005000000"
    "0000000006000000000000000200000000000000000000000000000006000000"
    "0000000007000000000000000300000000000000000000000000000003000000"
    "0000000007000000000000000100000000000000000000000000000007000000"
    "0000000008000000000000000100000000000000000000000000000004000000"
    "00000000080000000000000001000000000000000000000000000000";
    const char *const machineHex =
    "0b0000000000000032632d67702d32622d317000000000020000000000000002"
    "0000000000000004000000000000000000000000000000000000000000000000"
    "0000000000000001000000000000000100000000000000040000000000000000"
    "0000000000000000000000000000000000000000000000010000000000000001"
    "000000000000000000000000000000";
    const char *const resultHex =
    "0100000002000000000000000100000000000000020000000000000002000000"
    "00000000ec02000000000000060000000000000070696e6e65640b0000000000"
    "0000040000000200000000000000010000000000000061040000000200000000"
    "0000000100000000000000620600000003000000000000000100000000000000"
    "6d05000000010000000000000001000000000000007300000000010000000000"
    "0000010000000000000069040000000200000000000000010000000000000063"
    "0600000003000000000000000100000000000000640500000001000000000000"
    "0001000000000000007403000000010000000000000002000000000000007374"
    "090000000100000000000000040000000000000063705f730900000001000000"
    "00000000040000000000000063705f690f000000000000000300000000000000"
    "0900000000000000010000000000000000000000000000000400000000000000"
    "0a00000000000000010000000000000000000000000000000000000000000000"
    "0200000000000000020000000000000000000000000000000100000000000000"
    "0200000000000000020000000000000000000000000000000200000000000000"
    "0300000000000000030000000000000000000000000000000300000000000000"
    "0300000000000000010000000000000001000000000000000400000000000000"
    "0400000000000000010000000000000001000000000000000400000000000000"
    "0000000000000000010000000000000000000000000000000400000000000000"
    "0100000000000000010000000000000000000000000000000a00000000000000"
    "0500000000000000010000000000000000000000000000000500000000000000"
    "0600000000000000020000000000000000000000000000000600000000000000"
    "0700000000000000030000000000000000000000000000000900000000000000"
    "0700000000000000010000000000000000000000000000000700000000000000"
    "0800000000000000010000000000000000000000000000000a00000000000000"
    "0800000000000000010000000000000000000000000000000900000000000000"
    "0b00000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000100000000000000"
    "0000000000000000010000000000000000000000000000000100000000000000"
    "0000000000000000010000000000000000000000000000000000000000000000"
    "0100000000000000010000000000000000000000000000000100000000000000"
    "010000000000000002000000000000000b000000000000000100000000000000"
    "0100000000000000030000000000000006000000000000000000000000000000"
    "0300000000000000050000000000000008000000000000000900000000000000"
    "0700000000000000020000000000000002000000000000000100000000000000"
    "0000000000000000000000000000000000000000000000000000000002000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000005000000000000000c00000000000000"
    "5900000000000000";

    const Dfg graph = pinnedLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileResult result = compileClustered(graph, machine);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.copies, 2);
    result.phaseMs = PhaseTimes{};
    ByteWriter writer;
    writeCompileResult(writer, result);
    EXPECT_EQ(toHex(packDfg(graph)), dfgHex);
    EXPECT_EQ(toHex(packMachine(machine)), machineHex);
    EXPECT_EQ(toHex(writer.data()), resultHex);
}

TEST(CacheSerialize, DfgReaderRefusesCountsTheBytesCannotHold)
{
    // A node takes at least 20 image bytes and an edge 32, so neither
    // count may exceed what the rest of the input could hold.
    ByteWriter nodes;
    nodes.str("g");
    nodes.u64(uint64_t(1) << 24);
    nodes.u64(0);
    ASSERT_LT(nodes.data().size(), 64u);
    Dfg back;
    EXPECT_FALSE(readDfg(nodes.data(), back));

    ByteWriter edges;
    edges.str("g");
    edges.u64(1);
    edges.u32(static_cast<uint32_t>(Opcode::IntAlu));
    edges.i64(1);
    edges.str("");
    edges.u64(uint64_t(1) << 24);
    ASSERT_LT(edges.data().size(), 64u);
    EXPECT_FALSE(readDfg(edges.data(), back));
}

/** Byte offsets of every i64 field packMachine writes that
 *  readMachine narrows to int: numBuses, each cluster's units and
 *  ports, and each link's ends. */
std::vector<size_t>
narrowedMachineFields(const MachineDesc &machine)
{
    std::vector<size_t> at;
    size_t pos = 8 + machine.name.size() + 4;
    at.push_back(pos); // numBuses
    pos += 8 + 8;      // numBuses, cluster count
    for (size_t c = 0; c < machine.clusters.size(); ++c) {
        for (int field = 0; field < 1 + numFuClasses + 2; ++field) {
            at.push_back(pos);
            pos += 8;
        }
    }
    pos += 8; // link count
    for (size_t l = 0; l < 2 * machine.links.size(); ++l) {
        at.push_back(pos);
        pos += 8;
    }
    EXPECT_EQ(pos, packMachine(machine).size());
    return at;
}

TEST(CacheSerialize, MachineReaderAcceptsOnlyCanonicalImages)
{
    // A narrowed field outside int used to wrap silently: 2^32 added
    // to numBuses or to a cluster's units was accepted and re-packed
    // to different bytes. Every such image is refused now, and every
    // image the reader accepts re-packs to itself.
    const int64_t wide = int64_t(1) << 32;
    for (const MachineDesc &machine :
         {busedGpMachine(2, 2, 1), busedFsMachine(4, 2, 2),
          gridMachine(2)}) {
        SCOPED_TRACE(machine.name);
        const std::string image = packMachine(machine);
        const std::vector<size_t> fields = narrowedMachineFields(machine);
        MachineDesc back;
        ASSERT_TRUE(readMachine(image, back));
        for (const size_t at : fields) {
            SCOPED_TRACE(at);
            const int64_t value = peekI64(image, at);
            ASSERT_EQ(patchI64(image, at, value), image);
            for (const int64_t bad :
                 {value + wide, value - wide,
                  int64_t(std::numeric_limits<int>::max()) + 1,
                  int64_t(std::numeric_limits<int>::min()) - 1}) {
                EXPECT_FALSE(readMachine(patchI64(image, at, bad), back))
                    << bad;
            }
            for (const int64_t other :
                 {int64_t(0), int64_t(1), int64_t(3), int64_t(-1),
                  int64_t(std::numeric_limits<int>::max()),
                  int64_t(std::numeric_limits<int>::min())}) {
                const std::string patched = patchI64(image, at, other);
                if (readMachine(patched, back)) {
                    EXPECT_EQ(packMachine(back), patched) << other;
                }
            }
        }
    }
}

TEST(CacheSerialize, MachineReaderRefusesCountsAboveTheCeiling)
{
    // Such an image once reached camsd, whose unifiedEquivalent()
    // then overflowed summing the counts.
    MachineDesc huge = busedFsMachine(2, 2, 1);
    huge.clusters[0].fsUnits.fill(std::numeric_limits<int>::max());
    MachineDesc back;
    EXPECT_FALSE(readMachine(packMachine(huge), back));
}

TEST(CacheSerialize, ResultReaderRefusesNonCanonicalFields)
{
    const CompileResult result =
        compileClustered(sampleLoop(), busedGpMachine(2, 2, 1));
    ASSERT_TRUE(result.success);
    ByteWriter writer;
    writeCompileResult(writer, result);
    const std::string image = writer.take();
    CompileResult back;
    {
        ByteReader reader(image);
        ASSERT_TRUE(readCompileResult(reader, back));
    }
    // The success flag (bytes 0..3) must be 0 or 1; the II (the i64
    // at byte 4) must fit in int.
    std::string flag = image;
    flag[0] = 2;
    ByteReader flagReader(flag);
    EXPECT_FALSE(readCompileResult(flagReader, back));
    const std::string ii =
        patchI64(image, 4, peekI64(image, 4) + (int64_t(1) << 32));
    ByteReader iiReader(ii);
    EXPECT_FALSE(readCompileResult(iiReader, back));
}

TEST(CompileCacheTest, HitServesStoredResult)
{
    const std::string dir = scratchDir("cache_hit");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    CompileCache cache(dir, CacheMode::ReadWrite);
    ASSERT_TRUE(cache.enabled());
    options.cache = &cache;

    const CompileResult cold = compileClustered(graph, machine, options);
    ASSERT_TRUE(cold.success);
    EXPECT_TRUE(cold.cacheProbed);
    EXPECT_FALSE(cold.fromCache);

    const CompileResult warm = compileClustered(graph, machine, options);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.ii, cold.ii);
    EXPECT_EQ(warm.copies, cold.copies);
    EXPECT_EQ(warm.attempts, cold.attempts);
    EXPECT_EQ(packDfg(warm.loop.graph), packDfg(cold.loop.graph));

    // A second cache on the same directory (a new process) serves the
    // same entry.
    CompileCache reopened(dir, CacheMode::ReadOnly);
    CompileOptions ro = options;
    ro.cache = &reopened;
    const CompileResult again = compileClustered(graph, machine, ro);
    EXPECT_TRUE(again.fromCache);
    EXPECT_EQ(again.ii, cold.ii);
}

TEST(CompileCacheTest, IsomorphicRenumberingMissesOnExactMatch)
{
    const std::string dir = scratchDir("cache_iso");
    const Dfg graph = sampleLoop();
    const Dfg twin = permuted(graph, {3, 1, 0, 2});
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    CompileCache cache(dir, CacheMode::ReadWrite);
    options.cache = &cache;
    ASSERT_TRUE(compileClustered(graph, machine, options).success);

    // Same canonical hash, same entry file -- but the byte-exact gate
    // must refuse to serve the twin another graph's node ids.
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const CacheKey twinKey = makeCacheKey(twin, machine, options, true);
    EXPECT_EQ(key.loopHash, twinKey.loopHash);
    CompileResult out;
    EXPECT_FALSE(cache.lookup(twinKey, twin, machine, out));

    const CompileResult res = compileClustered(twin, machine, options);
    EXPECT_TRUE(res.success);
    EXPECT_FALSE(res.fromCache);
}

TEST(CompileCacheTest, RejectsVersionMismatchAndTruncation)
{
    const std::string dir = scratchDir("cache_corrupt");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;

    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(compileClustered(graph, machine, options).success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    ASSERT_TRUE(fs::exists(entry));

    // Overwrite the format-version field (bytes 4..7 after the magic)
    // with a future version and with version 1, whose checksums were
    // the byte-at-a-time hash; both are rejected and recompiled.
    for (const char version : {char(0x7f), char(1)}) {
        SCOPED_TRACE(int(version));
        {
            std::fstream f(entry, std::ios::in | std::ios::out |
                                      std::ios::binary);
            f.seekp(4);
            f.put(version);
        }
        {
            CompileCache cache(dir, CacheMode::ReadWrite);
            CompileResult out;
            EXPECT_FALSE(cache.lookup(key, graph, machine, out));
            EXPECT_EQ(cache.totals().rejects, 1);
            // rw mode unlinks the bad entry.
            EXPECT_FALSE(fs::exists(entry));
        }

        // Repopulate through a cold compile.
        {
            CompileCache cache(dir, CacheMode::ReadWrite);
            options.cache = &cache;
            const CompileResult res =
                compileClustered(graph, machine, options);
            ASSERT_TRUE(res.success);
            EXPECT_FALSE(res.fromCache);
        }
        ASSERT_TRUE(fs::exists(entry));
    }

    // Truncate the payload.
    fs::resize_file(entry, fs::file_size(entry) / 2);
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        CompileResult out;
        EXPECT_FALSE(cache.lookup(key, graph, machine, out));
        EXPECT_EQ(cache.totals().rejects, 1);
        options.cache = &cache;
        // And the compile path degrades to a cold compile.
        const CompileResult res =
            compileClustered(graph, machine, options);
        EXPECT_TRUE(res.success);
        EXPECT_FALSE(res.fromCache);
    }
}

TEST(CompileCacheTest, ReadOnlyModeWritesNothing)
{
    const std::string dir = scratchDir("cache_ro");
    fs::create_directories(dir);
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadOnly);
    ASSERT_TRUE(cache.enabled());
    CompileOptions options;
    options.cache = &cache;
    ASSERT_TRUE(compileClustered(graph, machine, options).success);
    EXPECT_EQ(cache.totals().entries, 0);
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(CompileCacheTest, FaultInjectedCompilesBypassTheCache)
{
    const std::string dir = scratchDir("cache_faults");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadWrite);
    CompileOptions options;
    options.cache = &cache;
    options.faults = std::make_shared<FaultInjector>(
        FaultConfig::uniform(0.5, 7));
    const CompileResult res = compileClustered(graph, machine, options);
    EXPECT_FALSE(res.cacheProbed);
    EXPECT_EQ(cache.totals().entries, 0);
}

TEST(CompileCacheTest, ConcurrentReadWriteThroughThePool)
{
    const std::string dir = scratchDir("cache_mt");
    const std::vector<Dfg> suite = buildSuite(40);
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileCache cache(dir, CacheMode::ReadWrite);
    CompileOptions options;
    options.cache = &cache;

    // Cold fan-out: 8 workers race lookups and stores on one cache.
    const BatchOutcome cold =
        BatchRunner::run(clusteredJobs(suite, machine, options), 8);
    EXPECT_EQ(cold.stats.cacheMisses + cold.stats.cacheHits, 40);

    // Warm fan-out must serve every job with identical figures.
    const BatchOutcome warm =
        BatchRunner::run(clusteredJobs(suite, machine, options), 8);
    EXPECT_EQ(warm.stats.cacheHits, 40);
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (size_t i = 0; i < cold.results.size(); ++i) {
        EXPECT_EQ(warm.results[i].success, cold.results[i].success);
        EXPECT_EQ(warm.results[i].ii, cold.results[i].ii);
        EXPECT_EQ(warm.results[i].copies, cold.results[i].copies);
        EXPECT_EQ(warm.results[i].attempts, cold.results[i].attempts);
    }
}

/** Whole-file read/write helpers for corruption tests. */
std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spill(const fs::path &path, const std::string &bytes, size_t length)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(
                  std::min(length, bytes.size())));
}

TEST(CompileCacheTest, ScrubQuarantinesTornEntryAtEveryBoundary)
{
    const std::string dir = scratchDir("cache_scrub_torn");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    CompileResult cold;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        cold = compileClustered(graph, machine, options);
        ASSERT_TRUE(cold.success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    const std::string valid = slurp(entry);
    ASSERT_FALSE(valid.empty());

    // A write torn at *any* byte must be quarantined, never served.
    for (size_t length = 0; length < valid.size(); ++length) {
        spill(entry, valid, length);
        const ScrubReport report = scrubCacheDir(dir);
        ASSERT_TRUE(report.error.empty()) << report.error;
        ASSERT_EQ(report.entriesScanned, 1) << "length " << length;
        ASSERT_EQ(report.quarantined, 1) << "length " << length;
        ASSERT_FALSE(fs::exists(entry)) << "length " << length;
        fs::remove_all(fs::path(dir) / "corrupt");
    }

    // Intact bytes survive the scrub, and the warm lookup after it
    // serves the same result the cold compile produced.
    spill(entry, valid, valid.size());
    const ScrubReport clean = scrubCacheDir(dir);
    EXPECT_EQ(clean.entriesOk, 1);
    EXPECT_EQ(clean.quarantined, 0);
    CompileCache cache(dir, CacheMode::ReadWrite);
    options.cache = &cache;
    const CompileResult warm = compileClustered(graph, machine,
                                                options);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.ii, cold.ii);
    EXPECT_EQ(warm.copies, cold.copies);
    EXPECT_EQ(packDfg(warm.loop.graph), packDfg(cold.loop.graph));
}

TEST(CompileCacheTest, ScrubQuarantinesBitRotAndMisnamedEntries)
{
    const std::string dir = scratchDir("cache_scrub_rot");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    const CacheKey key = makeCacheKey(graph, machine, options, true);
    const fs::path entry = fs::path(dir) / key.fileName();
    const std::string valid = slurp(entry);

    // One flipped bit deep in the payload: the checksum catches it.
    std::string rotten = valid;
    rotten[rotten.size() - 3] ^= 0x20;
    spill(entry, rotten, rotten.size());
    // And valid bytes filed under the wrong name: the stored-hash /
    // file-name consistency check catches the mismatch.
    const fs::path foreign = fs::path(dir) / "0123456789abcdef.cce";
    spill(foreign, valid, valid.size());

    const ScrubReport report = scrubCacheDir(dir);
    EXPECT_EQ(report.entriesScanned, 2);
    EXPECT_EQ(report.quarantined, 2);
    EXPECT_EQ(report.entriesOk, 0);
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_FALSE(fs::exists(foreign));
    // Quarantined, not deleted: the evidence moves to corrupt/.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "corrupt" /
                           key.fileName()));
}

TEST(CompileCacheTest, ScrubRemovesWriterDebrisAndRebuildsIndex)
{
    const std::string dir = scratchDir("cache_scrub_tmp");
    const Dfg graph = sampleLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        options.cache = &cache;
        ASSERT_TRUE(
            compileClustered(graph, machine, options).success);
    }
    // Debris of a writer killed between open and rename, plus a
    // corrupt entry the index would otherwise have trusted.
    spill(fs::path(dir) / ".tmp-12345-deadbeef", "partial", 7);
    spill(fs::path(dir) / "00000000000000ff.cce", "garbage", 7);

    CompileCache cache(dir, CacheMode::ReadWrite);
    EXPECT_EQ(cache.totals().entries, 2); // scan trusted both names
    const ScrubReport report = cache.scrub();
    EXPECT_EQ(report.tmpRemoved, 1);
    EXPECT_EQ(report.quarantined, 1);
    EXPECT_EQ(report.entriesOk, 1);
    EXPECT_EQ(cache.totals().entries, 1); // index rebuilt
    EXPECT_EQ(cache.totals().quarantined, 1);
    EXPECT_FALSE(fs::exists(fs::path(dir) / ".tmp-12345-deadbeef"));

    const CacheKey key = makeCacheKey(graph, machine, options, true);
    CompileResult out;
    EXPECT_TRUE(cache.lookup(key, graph, machine, out));

    // And a scrub of a directory that is not there reports an error
    // instead of inventing an empty one.
    const ScrubReport missing =
        scrubCacheDir(dir + "/does-not-exist");
    EXPECT_FALSE(missing.error.empty());
}

TEST(CompileCacheTest, ModeParsing)
{
    CacheMode mode = CacheMode::Off;
    EXPECT_TRUE(parseCacheMode("rw", mode));
    EXPECT_EQ(mode, CacheMode::ReadWrite);
    EXPECT_TRUE(parseCacheMode("ro", mode));
    EXPECT_EQ(mode, CacheMode::ReadOnly);
    EXPECT_TRUE(parseCacheMode("off", mode));
    EXPECT_EQ(mode, CacheMode::Off);
    EXPECT_FALSE(parseCacheMode("readwrite", mode));
    EXPECT_STREQ(cacheModeName(CacheMode::ReadWrite), "rw");
}

} // namespace
} // namespace cams
