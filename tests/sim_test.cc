/**
 * @file
 * Tests for the execution simulators: functional semantics,
 * sequential reference, the cycle-accurate VLIW pipeline, and the
 * equivalence harness -- including negative tests proving the
 * simulator actually catches broken schedules and placements.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "sim/compare.hh"
#include "sim/reference.hh"
#include "sim/vliw.hh"
#include "workload/kernels.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

TEST(Semantics, Deterministic)
{
    EXPECT_EQ(applyOp(Opcode::FpAdd, 3, {1, 2}),
              applyOp(Opcode::FpAdd, 3, {1, 2}));
    EXPECT_NE(applyOp(Opcode::FpAdd, 3, {1, 2}),
              applyOp(Opcode::FpAdd, 3, {2, 1})); // order sensitive
    EXPECT_NE(applyOp(Opcode::FpAdd, 3, {1, 2}),
              applyOp(Opcode::FpMult, 3, {1, 2}));
    EXPECT_NE(applyOp(Opcode::FpAdd, 3, {1, 2}),
              applyOp(Opcode::FpAdd, 4, {1, 2}));
}

TEST(Semantics, LiveInsDistinct)
{
    EXPECT_NE(liveInValue(0, -1), liveInValue(0, -2));
    EXPECT_NE(liveInValue(0, -1), liveInValue(1, -1));
    EXPECT_EQ(liveInValue(5, -3), liveInValue(5, -3));
}

TEST(Reference, ChainPropagatesValues)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::FpAdd)
                    .flow("a", "b")
                    .build();
    const ReferenceTrace trace(graph, 3);
    for (long iter = 0; iter < 3; ++iter) {
        const SimValue a = applyOp(Opcode::Load, 0, {});
        EXPECT_EQ(trace.value(0, iter), a);
        EXPECT_EQ(trace.value(1, iter),
                  applyOp(Opcode::FpAdd, 1, {a}));
    }
}

TEST(Reference, RecurrenceEvolves)
{
    Dfg graph = DfgBuilder("t")
                    .op("acc", Opcode::FpAdd)
                    .carried("acc", "acc", 1)
                    .build();
    const ReferenceTrace trace(graph, 4);
    // iteration 0 consumes the live-in; every later one consumes the
    // previous value, so all four values are distinct.
    EXPECT_EQ(trace.value(0, 0),
              applyOp(Opcode::FpAdd, 0, {liveInValue(0, -1)}));
    for (long iter = 1; iter < 4; ++iter) {
        EXPECT_EQ(trace.value(0, iter),
                  applyOp(Opcode::FpAdd, 0, {trace.value(0, iter - 1)}));
        EXPECT_NE(trace.value(0, iter), trace.value(0, iter - 1));
    }
}

TEST(Reference, RejectsAnnotatedGraphs)
{
    Dfg graph;
    graph.addNode(Opcode::Copy);
    graph.seal();
    EXPECT_DEATH({ ReferenceTrace trace(graph, 1); }, "annotated");
}

TEST(Vliw, UnifiedKernelMatchesReference)
{
    const MachineDesc machine = unifiedGpMachine(8);
    for (const Dfg &kernel : allKernels()) {
        const CompileResult result = compileUnified(kernel, machine);
        ASSERT_TRUE(result.success) << kernel.name();
        const auto report = checkEquivalence(kernel, result.loop,
                                             result.schedule, machine);
        EXPECT_TRUE(report.equivalent)
            << kernel.name() << ": "
            << (report.mismatches.empty() ? "" : report.mismatches[0]);
        EXPECT_EQ(report.transfers, 0);
    }
}

TEST(Vliw, ClusteredKernelsMatchReferenceEverywhere)
{
    const std::vector<MachineDesc> machines = {
        busedGpMachine(2, 2, 1), busedGpMachine(4, 4, 2),
        busedFsMachine(2, 2, 1), gridMachine()};
    for (const MachineDesc &machine : machines) {
        for (const Dfg &kernel : allKernels()) {
            const CompileResult result =
                compileClustered(kernel, machine);
            ASSERT_TRUE(result.success)
                << kernel.name() << " on " << machine.name;
            const auto report = checkEquivalence(
                kernel, result.loop, result.schedule, machine, 10);
            EXPECT_TRUE(report.equivalent)
                << kernel.name() << " on " << machine.name << ": "
                << (report.mismatches.empty() ? ""
                                              : report.mismatches[0]);
            if (result.copies > 0) {
                EXPECT_GT(report.transfers, 0);
            }
        }
    }
}

TEST(Vliw, CatchesTamperedSchedule)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    Dfg kernel = kernelHydro();
    CompileResult result = compileClustered(kernel, machine);
    ASSERT_TRUE(result.success);

    // Pull a dependent op one full stage earlier: the simulator must
    // flag a too-early read (values would be garbage in hardware).
    Schedule broken = result.schedule;
    NodeId victim = invalidNode;
    for (NodeId v = 0; v < result.loop.graph.numNodes(); ++v) {
        if (!result.loop.graph.inEdges(v).empty() &&
            broken.startCycle[v] >= broken.ii) {
            victim = v;
            break;
        }
    }
    ASSERT_NE(victim, invalidNode);
    broken.startCycle[victim] -= broken.ii;

    VliwSimulator sim(result.loop, broken, machine);
    const VliwRun run = sim.run(8);
    EXPECT_FALSE(run.ok());
}

TEST(Vliw, CatchesTamperedPlacement)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    Dfg kernel = kernelFir4();
    CompileResult result = compileClustered(kernel, machine);
    ASSERT_TRUE(result.success);

    // Move one op with local predecessors to the other cluster
    // without inserting copies: reads must fail to find the value.
    AnnotatedLoop broken = result.loop;
    NodeId victim = invalidNode;
    for (NodeId v = 0; v < broken.numOriginalNodes; ++v) {
        if (!broken.graph.inEdges(v).empty()) {
            victim = v;
            break;
        }
    }
    ASSERT_NE(victim, invalidNode);
    broken.placement[victim].cluster =
        1 - broken.placement[victim].cluster;

    VliwSimulator sim(broken, result.schedule, machine);
    const VliwRun run = sim.run(8);
    EXPECT_FALSE(run.ok());
}

TEST(Vliw, TransfersCountHops)
{
    // On the grid a diagonal value crosses two links: at least two
    // transfers for one logical communication.
    const MachineDesc grid = gridMachine();
    Dfg kernel = kernelStateEquation();
    const CompileResult result = compileClustered(kernel, grid);
    ASSERT_TRUE(result.success);
    const auto report = checkEquivalence(kernel, result.loop,
                                         result.schedule, grid, 6);
    EXPECT_TRUE(report.equivalent);
    EXPECT_EQ(report.transfers, 6L * result.copies);
}

TEST(Vliw, GeneratedLoopsEquivalentEndToEnd)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    for (uint64_t seed = 7000; seed < 7012; ++seed) {
        const Dfg loop = generateLoop(seed);
        const CompileResult result = compileClustered(loop, machine);
        ASSERT_TRUE(result.success) << "seed " << seed;
        const auto report = checkEquivalence(loop, result.loop,
                                             result.schedule, machine);
        EXPECT_TRUE(report.equivalent)
            << "seed " << seed << ": "
            << (report.mismatches.empty() ? "" : report.mismatches[0]);
    }
}

TEST(Vliw, ZeroIterationsIsClean)
{
    const MachineDesc machine = unifiedGpMachine(8);
    Dfg kernel = kernelFirstDiff();
    const CompileResult result = compileUnified(kernel, machine);
    ASSERT_TRUE(result.success);
    VliwSimulator sim(result.loop, result.schedule, machine);
    const VliwRun run = sim.run(0);
    EXPECT_TRUE(run.ok());
    EXPECT_EQ(run.cycles, 0);
}

} // namespace
} // namespace cams
