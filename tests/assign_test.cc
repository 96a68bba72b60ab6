/**
 * @file
 * Unit and integration tests for the cluster assignment engine:
 * feasibility, copy insertion, SCC cohesion, annotated-loop
 * structural validity, eviction behavior, and the four variants.
 */

#include <gtest/gtest.h>

#include "assign/assigner.hh"
#include "graph/builder.hh"
#include "graph/recmii.hh"
#include "machine/configs.hh"
#include "workload/kernels.hh"

namespace cams
{
namespace
{

AssignResult
assign(const Dfg &graph, const MachineDesc &machine, int ii,
       AssignOptions options = {})
{
    const ResourceModel model(machine);
    return ClusterAssigner(model, options).run(graph, ii);
}

TEST(Assign, SingleNodeTrivial)
{
    Dfg graph = DfgBuilder("t").op("a", Opcode::IntAlu).build();
    const auto result = assign(graph, busedGpMachine(2, 2, 1), 1);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.copies, 0);
    EXPECT_EQ(result.loop.graph.numNodes(), 1);
}

TEST(Assign, ChainStaysOnOneClusterWhenItFits)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::FpAdd)
                    .op("c", Opcode::Store)
                    .chain({"a", "b", "c"})
                    .build();
    const auto result = assign(graph, busedGpMachine(2, 2, 1), 2);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.copies, 0);
    EXPECT_EQ(result.clusterOf[0], result.clusterOf[1]);
    EXPECT_EQ(result.clusterOf[1], result.clusterOf[2]);
}

TEST(Assign, OverflowForcesSplitWithCopies)
{
    // 8 independent producers feeding one consumer on a 2x1-GP
    // machine at II 4: each cluster holds 4 ops, so a split and at
    // least one copy are inevitable.
    DfgBuilder b("t");
    for (int i = 0; i < 7; ++i)
        b.op("p" + std::to_string(i), Opcode::IntAlu);
    b.op("sink", Opcode::IntAlu);
    for (int i = 0; i < 7; ++i)
        b.flow("p" + std::to_string(i), "sink");

    MachineDesc machine = busedGpMachine(2, 2, 1);
    for (auto &cluster : machine.clusters)
        cluster.gpUnits = 1;
    machine.name = "2c-1gp";

    const auto result = assign(b.build(), machine, 4);
    ASSERT_TRUE(result.success);
    EXPECT_GT(result.copies, 0);
    std::string why;
    EXPECT_TRUE(result.loop.validate(machine, &why)) << why;
}

TEST(Assign, InfeasibleIiFails)
{
    // 10 ops on a machine with total width 2 cannot fit in II 4.
    DfgBuilder b("t");
    for (int i = 0; i < 10; ++i)
        b.op("p" + std::to_string(i), Opcode::IntAlu);
    MachineDesc machine = busedGpMachine(2, 2, 1);
    for (auto &cluster : machine.clusters)
        cluster.gpUnits = 1;
    machine.name = "2c-1gp";
    const auto result = assign(b.build(), machine, 4);
    EXPECT_FALSE(result.success);
}

TEST(Assign, SccKeptTogether)
{
    Dfg graph = kernelTridiag();
    const auto result = assign(graph, busedGpMachine(2, 2, 1), 4);
    ASSERT_TRUE(result.success);
    // sub (id 2) and mul (id 3) form the recurrence.
    EXPECT_EQ(result.clusterOf[2], result.clusterOf[3]);
}

TEST(Assign, AnnotatedGraphPreservesRecMiiWhenSccsIntact)
{
    Dfg graph = kernelTridiag();
    const int before = recMii(graph);
    const auto result = assign(graph, busedGpMachine(2, 2, 1), before);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(recMii(result.loop.graph), before);
}

TEST(Assign, CopiesAnnotatedWithRoutes)
{
    DfgBuilder b("t");
    for (int i = 0; i < 7; ++i)
        b.op("p" + std::to_string(i), Opcode::IntAlu);
    b.op("sink", Opcode::IntAlu);
    for (int i = 0; i < 7; ++i)
        b.flow("p" + std::to_string(i), "sink");
    MachineDesc machine = busedGpMachine(2, 2, 2);
    for (auto &cluster : machine.clusters)
        cluster.gpUnits = 2;
    machine.name = "2c-2gp-2p";

    // At II 2 the machine has exactly 8 slots, so the 8 ops must
    // split across clusters and the sink needs copies.
    const auto result = assign(b.build(), machine, 2);
    ASSERT_TRUE(result.success);
    ASSERT_GT(result.copies, 0);
    for (NodeId v = result.loop.numOriginalNodes;
         v < result.loop.graph.numNodes(); ++v) {
        EXPECT_EQ(result.loop.graph.node(v).op, Opcode::Copy);
        EXPECT_FALSE(result.loop.placement[v].copyDsts.empty());
    }
}

TEST(Assign, BroadcastServesMultipleConsumersWithOneCopy)
{
    // One producer read by consumers pinned (by capacity) to other
    // clusters on a 4-cluster broadcast machine.
    DfgBuilder b("t");
    b.op("src", Opcode::IntAlu);
    for (int i = 0; i < 15; ++i)
        b.op("c" + std::to_string(i), Opcode::IntAlu);
    for (int i = 0; i < 15; ++i)
        b.flow("src", "c" + std::to_string(i));
    const auto result = assign(b.build(), busedGpMachine(4, 4, 2), 1);
    ASSERT_TRUE(result.success);
    // At II 1 every cluster holds exactly its 4 ops, so src's value
    // must reach the three other clusters -- via exactly one
    // broadcast copy.
    EXPECT_EQ(result.copies, 1);
    const NodeId copy = result.loop.numOriginalNodes;
    EXPECT_EQ(result.loop.placement[copy].copyDsts.size(), 3u);
}

TEST(Assign, GridUsesHopChains)
{
    // Force a diagonal transfer on the grid: fill the source cluster
    // and its neighbors so a consumer lands diagonally.
    Dfg graph = DfgBuilder("t")
                    .op("ld", Opcode::Load)
                    .op("a1", Opcode::IntAlu)
                    .op("f1", Opcode::FpAdd)
                    .op("ld2", Opcode::Load)
                    .op("a2", Opcode::IntAlu)
                    .op("f2", Opcode::FpAdd)
                    .op("ld3", Opcode::Load)
                    .op("a3", Opcode::IntAlu)
                    .op("f3", Opcode::FpAdd)
                    .op("ld4", Opcode::Load)
                    .op("a4", Opcode::IntAlu)
                    .op("f4", Opcode::FpAdd)
                    .flow("ld", "a1")
                    .flow("ld", "a2")
                    .flow("ld", "a3")
                    .flow("ld", "a4")
                    .flow("a1", "f1")
                    .flow("a2", "f2")
                    .flow("a3", "f3")
                    .flow("a4", "f4")
                    .flow("ld2", "a2")
                    .flow("ld3", "a3")
                    .flow("ld4", "a4")
                    .build();
    const auto result = assign(graph, gridMachine(), 1);
    ASSERT_TRUE(result.success);
    // At II 1 each grid cluster holds exactly 1 mem + 1 int + 1 fp op,
    // so all four clusters are used and ld's value must reach the
    // diagonal cluster: a spanning hop tree of at least 3 copies with
    // at least one chained hop (a copy fed by another copy).
    EXPECT_GE(result.copies, 3);
    bool chained = false;
    for (NodeId v = result.loop.numOriginalNodes;
         v < result.loop.graph.numNodes(); ++v) {
        for (NodeId pred : result.loop.graph.predecessors(v)) {
            if (result.loop.isCopy(pred))
                chained = true;
        }
    }
    EXPECT_TRUE(chained) << "no multi-hop copy chain was needed?";
    std::string why;
    EXPECT_TRUE(result.loop.validate(gridMachine(), &why)) << why;
}

TEST(Assign, NonIterativeFailsWhereIterativeSucceeds)
{
    // A workload tight enough that greedy placement needs repair.
    DfgBuilder b("t");
    for (int i = 0; i < 4; ++i) {
        b.op("l" + std::to_string(i), Opcode::Load);
        b.op("m" + std::to_string(i), Opcode::FpMult);
        b.op("s" + std::to_string(i), Opcode::Store);
        b.flow("l" + std::to_string(i), "m" + std::to_string(i));
        b.flow("m" + std::to_string(i), "s" + std::to_string(i));
    }
    Dfg graph = b.build();
    const MachineDesc machine = busedFsMachine(4, 4, 2);
    AssignOptions iterative;
    AssignOptions greedy;
    greedy.iterative = false;
    // Both may succeed here; the iterative one must never do worse.
    const auto a = assign(graph, machine, 2, iterative);
    const auto c = assign(graph, machine, 2, greedy);
    EXPECT_TRUE(a.success || !c.success);
}

TEST(Assign, RejectsGraphWithCopies)
{
    Dfg graph;
    graph.addNode(Opcode::Copy);
    graph.seal();
    const ResourceModel model(busedGpMachine(2, 2, 1));
    ClusterAssigner assigner(model);
    EXPECT_DEATH({ assigner.run(graph, 4); }, "must not contain copies");
}

TEST(Assign, AllVariantsProduceValidAnnotations)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    for (bool iterative : {false, true}) {
        for (bool heuristic : {false, true}) {
            AssignOptions options;
            options.iterative = iterative;
            options.fullHeuristic = heuristic;
            for (const Dfg &kernel : allKernels()) {
                const int ii = std::max(recMii(kernel), 2);
                const auto result = assign(kernel, machine, ii, options);
                if (!result.success)
                    continue;
                std::string why;
                EXPECT_TRUE(result.loop.validate(machine, &why))
                    << kernel.name() << ": " << why;
            }
        }
    }
}

TEST(UnifiedLoop, WrapsWithoutCopies)
{
    Dfg graph = kernelHydro();
    const AnnotatedLoop loop = unifiedLoop(graph);
    EXPECT_EQ(loop.numCopies(), 0);
    EXPECT_EQ(loop.numOriginalNodes, graph.numNodes());
    std::string why;
    EXPECT_TRUE(loop.validate(unifiedGpMachine(8), &why)) << why;
}

} // namespace
} // namespace cams
