/**
 * @file
 * Unit tests for the graph substrate: opcodes (Table 2), the DFG
 * container and its packed adjacency, the builder, text round-tripping
 * and DOT output.
 */

#include <gtest/gtest.h>

#include "graph/adjacency.hh"
#include "graph/builder.hh"
#include "graph/dfg.hh"
#include "graph/dot.hh"
#include "graph/opcode.hh"
#include "graph/textio.hh"
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

TEST(Dfg, AdjacencyAndDedup)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::IntAlu);
    const NodeId b = graph.addNode(Opcode::IntAlu);
    graph.addEdge(a, b);
    graph.addEdge(a, b, -1, 1); // parallel edge, different distance
    EXPECT_EQ(graph.outEdges(a).size(), 2u);
    EXPECT_EQ(graph.inEdges(b).size(), 2u);
    EXPECT_EQ(graph.successors(a), std::vector<NodeId>{b});
    EXPECT_EQ(graph.predecessors(b), std::vector<NodeId>{a});
}

// The compile path reads neighbors only through Adjacency, so it must
// list them exactly as the Dfg queries do, in the same order.
TEST(Adjacency, MatchesDfgQueries)
{
    auto expectSameEdges = [](std::span<const AdjEdge> packed,
                              const Dfg &graph,
                              const std::vector<EdgeId> &edges,
                              bool incoming) {
        ASSERT_EQ(packed.size(), edges.size());
        for (size_t i = 0; i < edges.size(); ++i) {
            const DfgEdge &edge = graph.edge(edges[i]);
            EXPECT_EQ(packed[i].node, incoming ? edge.src : edge.dst);
            EXPECT_EQ(packed[i].latency, edge.latency);
            EXPECT_EQ(packed[i].distance, edge.distance);
        }
    };
    // The suite plus parallel edges and a self-edge, which the
    // neighbor lists must deduplicate and the edge lists must keep.
    std::vector<Dfg> graphs = buildSuite(64);
    Dfg &parallel = graphs.emplace_back();
    const NodeId a = parallel.addNode(Opcode::IntAlu);
    const NodeId b = parallel.addNode(Opcode::IntAlu);
    parallel.addEdge(a, b);
    parallel.addEdge(a, b, -1, 1);
    parallel.addEdge(b, a, -1, 2);
    parallel.addEdge(b, b, -1, 1);
    for (const Dfg &graph : graphs) {
        SCOPED_TRACE(graph.name());
        const Adjacency adj(graph);
        ASSERT_EQ(adj.numNodes(), graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v) {
            const std::span<const NodeId> preds = adj.preds(v);
            const std::span<const NodeId> succs = adj.succs(v);
            EXPECT_EQ(std::vector<NodeId>(preds.begin(), preds.end()),
                      graph.predecessors(v));
            EXPECT_EQ(std::vector<NodeId>(succs.begin(), succs.end()),
                      graph.successors(v));
            expectSameEdges(adj.inEdges(v), graph, graph.inEdges(v), true);
            expectSameEdges(adj.outEdges(v), graph, graph.outEdges(v),
                            false);
        }
    }
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
