/**
 * @file
 * Unit tests for priority-set grouping and the swing node order.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "order/scc_sets.hh"
#include "order/swing_order.hh"

namespace cams
{
namespace
{

/** The members of one priority set, as a vector. */
std::vector<NodeId>
members(const NodeSets &sets, int s)
{
    const auto set = sets.set(s);
    return {set.begin(), set.end()};
}

Dfg
twoRecurrences()
{
    // Critical SCC {c1, c2} with RecMII 4 (fmul in the cycle); mild
    // SCC {m1, m2} with RecMII 2; plus free nodes.
    return DfgBuilder("t")
        .op("pre", Opcode::Load)
        .op("c1", Opcode::FpAdd)
        .op("c2", Opcode::FpMult)
        .op("m1", Opcode::IntAlu)
        .op("m2", Opcode::IntAlu)
        .op("post", Opcode::Store)
        .flow("pre", "c1")
        .flow("c1", "c2")
        .carried("c2", "c1", 1)
        .flow("m1", "m2")
        .carried("m2", "m1", 1)
        .flow("c2", "post")
        .build();
}

TEST(SccSets, MostCriticalFirst)
{
    Dfg graph = twoRecurrences();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 3);
    EXPECT_EQ(sets.recMii[0], 4);
    EXPECT_EQ(sets.recMii[1], 2);
    EXPECT_EQ(sets.recMii[2], 1);
    // First set holds c1 (id 1) and c2 (id 2).
    EXPECT_EQ(members(sets, 0), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(members(sets, 1), (std::vector<NodeId>{3, 4}));
    EXPECT_EQ(members(sets, 2), (std::vector<NodeId>{0, 5}));
}

TEST(SccSets, SetOfIsConsistent)
{
    Dfg graph = twoRecurrences();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    for (int s = 0; s < sets.numSets(); ++s) {
        for (NodeId v : sets.set(s))
            EXPECT_EQ(sets.setOf[v], s);
    }
}

TEST(SccSets, AcyclicGraphOneSet)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 1);
    EXPECT_EQ(sets.set(0).size(), 2u);
    EXPECT_EQ(sets.recMii[0], 1);
}

TEST(SccSets, TieBreakBySize)
{
    // Two SCCs with the same RecMII (2): sizes 3 and 2.
    Dfg graph = DfgBuilder("t")
                    .op("a1", Opcode::IntAlu)
                    .op("a2", Opcode::IntAlu)
                    .op("b1", Opcode::IntAlu)
                    .op("b2", Opcode::IntAlu)
                    .op("b3", Opcode::IntAlu)
                    .flow("a1", "a2")
                    .carried("a2", "a1", 1)
                    .chain({"b1", "b2", "b3"})
                    .carried("b3", "b1", 2) // 3/2 -> 2
                    .build();
    const NodeSets sets = buildPrioritySets(graph, findSccs(graph));
    ASSERT_EQ(sets.numSets(), 2);
    EXPECT_EQ(sets.set(0).size(), 3u);
    EXPECT_EQ(sets.set(1).size(), 2u);
}

TEST(SwingOrder, EveryNodeExactlyOnce)
{
    Dfg graph = twoRecurrences();
    const auto order = swingOrder(graph, 4);
    ASSERT_EQ(order.size(), static_cast<size_t>(graph.numNodes()));
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        EXPECT_EQ(sorted[v], v);
}

TEST(SwingOrder, CriticalSccLeads)
{
    Dfg graph = twoRecurrences();
    const auto order = swingOrder(graph, 4);
    // The two members of the critical SCC come first (in some order).
    std::vector<NodeId> head = {order[0], order[1]};
    std::sort(head.begin(), head.end());
    EXPECT_EQ(head, (std::vector<NodeId>{1, 2}));
}

TEST(SwingOrder, NeighborAdjacency)
{
    // On a chain, the swing order should emit each node adjacent to an
    // already ordered neighbor (no jumps that strand a node between
    // two ordered neighbors).
    Dfg graph = DfgBuilder("chain")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::IntAlu)
                    .op("c", Opcode::IntAlu)
                    .op("d", Opcode::Store)
                    .chain({"a", "b", "c", "d"})
                    .build();
    const auto order = swingOrder(graph, 1);
    std::vector<int> position(graph.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = static_cast<int>(i);
    // Each node (after the first) has an adjacent-in-graph node
    // earlier in the order.
    for (size_t i = 1; i < order.size(); ++i) {
        const NodeId v = order[i];
        bool adjacent = false;
        for (NodeId p : graph.predecessors(v)) {
            if (position[p] < position[v])
                adjacent = true;
        }
        for (NodeId s : graph.successors(v)) {
            if (position[s] < position[v])
                adjacent = true;
        }
        EXPECT_TRUE(adjacent) << "node " << v << " stranded";
    }
}

TEST(SwingOrder, PaperExampleOrdering)
{
    // Figure 6 graph: the SCC {B, C, D} must precede A, E, F.
    Dfg graph = DfgBuilder("fig6")
                    .op("A", Opcode::IntAlu)
                    .op("B", Opcode::IntAlu)
                    .op("C", Opcode::IntAlu, 2)
                    .op("D", Opcode::IntAlu)
                    .op("E", Opcode::IntAlu)
                    .op("F", Opcode::IntAlu)
                    .chain({"A", "B", "C", "D", "E", "F"})
                    .carried("D", "B", 1)
                    .build();
    const auto order = swingOrder(graph, 4);
    std::vector<int> position(graph.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = static_cast<int>(i);
    // B=1, C=2, D=3 are the SCC; A=0, E=4, F=5 follow.
    EXPECT_LT(position[1], 3);
    EXPECT_LT(position[2], 3);
    EXPECT_LT(position[3], 3);
    EXPECT_GE(position[0], 3);
    EXPECT_GE(position[4], 3);
    EXPECT_GE(position[5], 3);
}

TEST(SwingOrder, DisconnectedComponents)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Load)
                    .op("c", Opcode::Load)
                    .build();
    const auto order = swingOrder(graph, 1);
    EXPECT_EQ(order.size(), 3u);
}

} // namespace
} // namespace cams
