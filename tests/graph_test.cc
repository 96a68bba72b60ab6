/**
 * @file
 * Unit tests for the graph substrate: opcodes (Table 2), the DFG
 * container and its sealed adjacency index, the builder, text
 * round-tripping and DOT output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "graph/builder.hh"
#include "graph/dfg.hh"
#include "graph/dot.hh"
#include "graph/opcode.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

TEST(Opcode, Table2Latencies)
{
    EXPECT_EQ(opcodeLatency(Opcode::IntAlu), 1);
    EXPECT_EQ(opcodeLatency(Opcode::IntShift), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Branch), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Store), 1);
    EXPECT_EQ(opcodeLatency(Opcode::FpAdd), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Copy), 1);
    EXPECT_EQ(opcodeLatency(Opcode::Load), 2);
    EXPECT_EQ(opcodeLatency(Opcode::FpMult), 3);
    EXPECT_EQ(opcodeLatency(Opcode::FpDiv), 9);
    EXPECT_EQ(opcodeLatency(Opcode::FpSqrt), 9);
}

TEST(Opcode, FuClasses)
{
    EXPECT_EQ(opcodeFuClass(Opcode::Load), FuClass::Memory);
    EXPECT_EQ(opcodeFuClass(Opcode::Store), FuClass::Memory);
    EXPECT_EQ(opcodeFuClass(Opcode::IntAlu), FuClass::Integer);
    EXPECT_EQ(opcodeFuClass(Opcode::Branch), FuClass::Integer);
    EXPECT_EQ(opcodeFuClass(Opcode::FpSqrt), FuClass::Float);
    EXPECT_EQ(opcodeFuClass(Opcode::Copy), FuClass::None);
}

TEST(Opcode, NameRoundTrip)
{
    for (int i = 0; i < numOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        Opcode parsed;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode dummy;
    EXPECT_FALSE(opcodeFromName("nosuchop", dummy));
}

TEST(Dfg, AddNodesAndEdges)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::Load);
    const NodeId b = graph.addNode(Opcode::FpMult, 5, "custom");
    graph.addEdge(a, b);
    EXPECT_EQ(graph.numNodes(), 2);
    EXPECT_EQ(graph.numEdges(), 1);
    EXPECT_EQ(graph.node(a).latency, 2); // Load default
    EXPECT_EQ(graph.node(b).latency, 5);
    EXPECT_EQ(graph.node(b).name, "custom");
    EXPECT_EQ(graph.edge(0).latency, 2); // producer latency default
    EXPECT_EQ(graph.edge(0).distance, 0);
}

TEST(Dfg, NeighbourDedup)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::IntAlu);
    const NodeId b = graph.addNode(Opcode::IntAlu);
    graph.addEdge(a, b);
    graph.addEdge(a, b, -1, 1); // parallel edge, different distance
    graph.seal();
    EXPECT_EQ(graph.outEdges(a).size(), 2u);
    EXPECT_EQ(graph.inEdges(b).size(), 2u);
    ASSERT_EQ(graph.successors(a).size(), 1u);
    EXPECT_EQ(graph.successors(a)[0], b);
    ASSERT_EQ(graph.predecessors(b).size(), 1u);
    EXPECT_EQ(graph.predecessors(b)[0], a);
}

/** Checks every row of a sealed graph's index against a brute-force
 *  scan of edges(): edge rows in edge-id order with their payloads,
 *  neighbour rows sorted and unique. */
void
expectIndexMatchesEdges(const Dfg &graph)
{
    ASSERT_TRUE(graph.sealed());
    auto expectEdgeRow = [&](std::span<const AdjEdge> row, NodeId v,
                             bool incoming) {
        size_t at = 0;
        for (const DfgEdge &edge : graph.edges()) {
            if ((incoming ? edge.dst : edge.src) != v)
                continue;
            ASSERT_LT(at, row.size());
            EXPECT_EQ(row[at].id, edge.id);
            EXPECT_EQ(row[at].node, incoming ? edge.src : edge.dst);
            EXPECT_EQ(row[at].latency, edge.latency);
            EXPECT_EQ(row[at].distance, edge.distance);
            ++at;
        }
        EXPECT_EQ(at, row.size());
    };
    auto expectNeighbourRow = [&](std::span<const NodeId> row, NodeId v,
                                  bool incoming) {
        std::vector<NodeId> want;
        for (const DfgEdge &edge : graph.edges()) {
            if ((incoming ? edge.dst : edge.src) == v)
                want.push_back(incoming ? edge.src : edge.dst);
        }
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), want);
    };
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        SCOPED_TRACE(v);
        expectEdgeRow(graph.inEdges(v), v, true);
        expectEdgeRow(graph.outEdges(v), v, false);
        expectNeighbourRow(graph.predecessors(v), v, true);
        expectNeighbourRow(graph.successors(v), v, false);
    }
}

// The compile path reads every neighbour through the sealed index, so
// each row must list exactly what a scan of the edges finds.
TEST(Dfg, IndexMatchesEdgeScan)
{
    // The suite plus parallel edges and a self-edge, which the
    // neighbour rows must deduplicate and the edge rows must keep.
    std::vector<Dfg> graphs = buildSuite(64);
    Dfg &parallel = graphs.emplace_back();
    const NodeId a = parallel.addNode(Opcode::IntAlu);
    const NodeId b = parallel.addNode(Opcode::IntAlu);
    parallel.addEdge(a, b);
    parallel.addEdge(a, b, -1, 1);
    parallel.addEdge(b, a, -1, 2);
    parallel.addEdge(b, b, -1, 1);
    parallel.seal();
    for (const Dfg &graph : graphs) {
        SCOPED_TRACE(graph.name());
        expectIndexMatchesEdges(graph);
    }

    // Annotated loops: spliced copies and rewired edges.
    for (const MachineDesc &machine :
         {busedGpMachine(2, 2, 1), gridMachine()}) {
        for (const Dfg &loop : std::span(graphs).first(64)) {
            SCOPED_TRACE(machine.name + " " + loop.name());
            const CompileResult result = compileClustered(loop, machine);
            ASSERT_TRUE(result.success);
            expectIndexMatchesEdges(result.loop.graph);
        }
    }

    // A sealed graph that gains an edge is unsealed until resealed.
    Dfg grown = graphs.front();
    grown.addEdge(grown.numNodes() - 1, 0, -1, 1);
    EXPECT_FALSE(grown.sealed());
    grown.seal();
    expectIndexMatchesEdges(grown);
}

TEST(Dfg, QueryOnUnsealedGraphPanics)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::IntAlu);
    EXPECT_DEATH({ (void)graph.inEdges(a); }, "unsealed graph");
    graph.seal();
    EXPECT_TRUE(graph.inEdges(a).empty());
    EXPECT_DEATH({ (void)graph.outEdges(a + 1); }, "bad node id");
    EXPECT_DEATH({ (void)graph.predecessors(-1); }, "bad node id");
    graph.addEdge(a, a, -1, 1);
    EXPECT_DEATH({ (void)graph.successors(a); }, "unsealed graph");
    graph.seal();
    ASSERT_EQ(graph.predecessors(a).size(), 1u);
}

TEST(Dfg, TotalLatency)
{
    Dfg graph;
    graph.addNode(Opcode::Load);   // 2
    graph.addNode(Opcode::FpMult); // 3
    EXPECT_EQ(graph.totalLatency(), 5);
}

TEST(Dfg, WellFormed)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::IntAlu);
    graph.addEdge(a, a, -1, 1);
    std::string why;
    EXPECT_TRUE(graph.wellFormed(&why)) << why;
}

TEST(Builder, NamedConstruction)
{
    Dfg graph = DfgBuilder("test")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::FpAdd)
                    .op("c", Opcode::Store)
                    .chain({"a", "b", "c"})
                    .carried("b", "b", 1)
                    .build();
    EXPECT_EQ(graph.name(), "test");
    EXPECT_EQ(graph.numNodes(), 3);
    EXPECT_EQ(graph.numEdges(), 3);
    EXPECT_EQ(graph.node(0).name, "a");
}

TEST(TextIo, RoundTrip)
{
    Dfg original = DfgBuilder("rt")
                       .op("x", Opcode::Load)
                       .op("y", Opcode::FpMult, 7)
                       .op("z", Opcode::Store)
                       .flow("x", "y")
                       .carried("y", "z", 2)
                       .build();
    const std::string text = serializeDfg(original);
    Dfg parsed;
    std::string error;
    ASSERT_TRUE(parseDfg(text, parsed, error)) << error;
    EXPECT_EQ(parsed.name(), "rt");
    ASSERT_EQ(parsed.numNodes(), 3);
    ASSERT_EQ(parsed.numEdges(), 2);
    EXPECT_EQ(parsed.node(1).latency, 7);
    EXPECT_EQ(parsed.edge(1).distance, 2);
    // Serializing again must be identical.
    EXPECT_EQ(serializeDfg(parsed), text);
}

TEST(TextIo, ParseWithCommentsAndBlanks)
{
    const std::string text = "# header\n"
                             "loop demo\n"
                             "\n"
                             "node a ld   # a load\n"
                             "node b st\n"
                             "edge a b lat=4 dist=1\n";
    Dfg graph;
    std::string error;
    ASSERT_TRUE(parseDfg(text, graph, error)) << error;
    EXPECT_EQ(graph.numNodes(), 2);
    EXPECT_EQ(graph.edge(0).latency, 4);
    EXPECT_EQ(graph.edge(0).distance, 1);
}

TEST(TextIo, RejectsBadInput)
{
    Dfg graph;
    std::string error;
    EXPECT_FALSE(parseDfg("node a nosuchop\n", graph, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(parseDfg("edge a b\n", graph, error));
    EXPECT_FALSE(parseDfg("node a ld\nnode a ld\n", graph, error));
    EXPECT_FALSE(parseDfg("bogus\n", graph, error));
    EXPECT_FALSE(parseDfg("node a ld lat=x\n", graph, error));
}

TEST(Dot, ContainsNodesAndClusterGroups)
{
    Dfg graph = DfgBuilder("d")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const std::string plain = toDot(graph);
    EXPECT_NE(plain.find("n0 -> n1"), std::string::npos);
    EXPECT_EQ(plain.find("subgraph"), std::string::npos);

    const std::vector<int> clusters = {0, 1};
    const std::string grouped = toDot(graph, &clusters);
    EXPECT_NE(grouped.find("subgraph cluster_0"), std::string::npos);
    EXPECT_NE(grouped.find("subgraph cluster_1"), std::string::npos);
}

TEST(Dot, CarriedEdgesDashed)
{
    Dfg graph = DfgBuilder("d2")
                    .op("a", Opcode::FpAdd)
                    .carried("a", "a", 3)
                    .build();
    const std::string dot = toDot(graph);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("d3"), std::string::npos);
}

} // namespace
} // namespace cams
