/**
 * @file
 * Unit tests for the SCC decomposition (Tarjan).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "graph/scc.hh"

namespace cams
{
namespace
{

std::vector<NodeId>
sortedComponentOf(const SccInfo &info, NodeId node)
{
    const auto members = info.component(info.componentOf[node]);
    std::vector<NodeId> comp(members.begin(), members.end());
    std::sort(comp.begin(), comp.end());
    return comp;
}

TEST(Scc, AcyclicGraphAllTrivial)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::FpAdd)
                    .op("c", Opcode::Store)
                    .chain({"a", "b", "c"})
                    .build();
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numComponents(), 3);
    EXPECT_EQ(info.numNonTrivial(), 0);
    for (NodeId v = 0; v < 3; ++v)
        EXPECT_FALSE(info.inRecurrence(v));
}

TEST(Scc, SelfLoopIsNonTrivial)
{
    Dfg graph = DfgBuilder("t")
                    .op("acc", Opcode::FpAdd)
                    .carried("acc", "acc", 1)
                    .build();
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numComponents(), 1);
    EXPECT_EQ(info.numNonTrivial(), 1);
    EXPECT_TRUE(info.inRecurrence(0));
}

TEST(Scc, CycleDetected)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::IntAlu)
                    .op("b", Opcode::IntAlu)
                    .op("c", Opcode::IntAlu)
                    .op("d", Opcode::IntAlu)
                    .chain({"a", "b", "c"})
                    .carried("c", "b", 1)
                    .flow("c", "d")
                    .build();
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numNonTrivial(), 1);
    EXPECT_FALSE(info.inRecurrence(graph.numNodes() - 4)); // a
    EXPECT_TRUE(info.inRecurrence(1));                     // b
    EXPECT_TRUE(info.inRecurrence(2));                     // c
    EXPECT_FALSE(info.inRecurrence(3));                    // d
    const auto comp = sortedComponentOf(info, 1);
    EXPECT_EQ(comp, (std::vector<NodeId>{1, 2}));
}

TEST(Scc, MultipleComponents)
{
    // Two separate 2-cycles plus an isolated chain.
    Dfg graph = DfgBuilder("t")
                    .op("a1", Opcode::FpAdd)
                    .op("a2", Opcode::FpMult)
                    .op("b1", Opcode::IntAlu)
                    .op("b2", Opcode::IntAlu)
                    .op("c", Opcode::Store)
                    .flow("a1", "a2")
                    .carried("a2", "a1", 1)
                    .flow("b1", "b2")
                    .carried("b2", "b1", 2)
                    .flow("a2", "c")
                    .build();
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numNonTrivial(), 2);
    EXPECT_NE(info.componentOf[0], info.componentOf[2]);
    EXPECT_EQ(info.componentOf[0], info.componentOf[1]);
    EXPECT_EQ(info.componentOf[2], info.componentOf[3]);
    EXPECT_FALSE(info.inRecurrence(4));
}

TEST(Scc, ReverseTopologicalComponentOrder)
{
    // a -> b means component(b) is emitted before component(a) by
    // Tarjan.
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::IntAlu)
                    .op("b", Opcode::IntAlu)
                    .flow("a", "b")
                    .build();
    const SccInfo info = findSccs(graph);
    EXPECT_LT(info.componentOf[1], info.componentOf[0]);
}

TEST(Scc, LargeCycleSingleComponent)
{
    DfgBuilder b("ring");
    const int n = 50;
    for (int i = 0; i < n; ++i)
        b.op("n" + std::to_string(i), Opcode::IntAlu);
    for (int i = 0; i + 1 < n; ++i)
        b.flow("n" + std::to_string(i), "n" + std::to_string(i + 1));
    b.carried("n" + std::to_string(n - 1), "n0", 1);
    Dfg graph = b.build();
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numComponents(), 1);
    EXPECT_EQ(info.component(0).size(), static_cast<size_t>(n));
    EXPECT_TRUE(info.nonTrivial[0]);
}

TEST(Scc, DisconnectedNodes)
{
    Dfg graph;
    graph.addNode(Opcode::Load);
    graph.addNode(Opcode::Load);
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numComponents(), 2);
    EXPECT_EQ(info.numNonTrivial(), 0);
}

TEST(Scc, EmptyGraph)
{
    Dfg graph;
    const SccInfo info = findSccs(graph);
    EXPECT_EQ(info.numComponents(), 0);
    EXPECT_EQ(info.numNonTrivial(), 0);
}

} // namespace
} // namespace cams
