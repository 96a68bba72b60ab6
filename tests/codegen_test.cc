/**
 * @file
 * Tests for kernel/pipeline code emission: structural properties of
 * the listing (every op present with its stage predicate, operand
 * register references resolve, copies name their transport, the
 * prologue/epilogue expansion has the right instance counts).
 */

#include <gtest/gtest.h>

#include "codegen/emit.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/kernels.hh"

namespace cams
{
namespace
{

struct Compiled
{
    CompileResult result;
    RegisterAllocation allocation;
};

Compiled
compile(const Dfg &loop, const MachineDesc &machine)
{
    Compiled compiled;
    compiled.result = compileClustered(loop, machine);
    EXPECT_TRUE(compiled.result.success);
    compiled.allocation = allocateRegisters(
        compiled.result.loop, compiled.result.schedule, machine);
    return compiled;
}

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
        ++count;
    }
    return count;
}

TEST(Codegen, KernelListsEveryOpOnce)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Compiled compiled = compile(kernelHydro(), machine);
    const std::string text =
        emitKernel(compiled.result.loop, compiled.result.schedule,
                   compiled.allocation, machine);
    for (const DfgNode &node : compiled.result.loop.graph.nodes()) {
        EXPECT_GE(countOccurrences(text, opcodeName(node.op) + "("), 1u)
            << node.name;
    }
    // One "cycle N:" header per kernel row.
    EXPECT_EQ(countOccurrences(text, "cycle "),
              static_cast<size_t>(compiled.result.ii));
}

TEST(Codegen, StagePredicatesPresent)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Compiled compiled = compile(kernelStateEquation(), machine);
    const std::string text =
        emitKernel(compiled.result.loop, compiled.result.schedule,
                   compiled.allocation, machine);
    EXPECT_NE(text.find("(p0)"), std::string::npos);
    const int stages = compiled.result.schedule.stageCount();
    EXPECT_NE(text.find("(p" + std::to_string(stages - 1) + ")"),
              std::string::npos);
}

TEST(Codegen, CopiesNameTheirTransport)
{
    const MachineDesc bus = busedGpMachine(2, 2, 1);
    const Compiled on_bus = compile(kernelFir4(), bus);
    if (on_bus.result.copies > 0) {
        const std::string text =
            emitKernel(on_bus.result.loop, on_bus.result.schedule,
                       on_bus.allocation, bus);
        EXPECT_NE(text.find("via bus"), std::string::npos);
    }

    const MachineDesc grid = gridMachine();
    const Compiled on_grid = compile(kernelFir4(), grid);
    ASSERT_GT(on_grid.result.copies, 0);
    const std::string text =
        emitKernel(on_grid.result.loop, on_grid.result.schedule,
                   on_grid.allocation, grid);
    EXPECT_NE(text.find("via link"), std::string::npos);
}

TEST(Codegen, CarriedReadsShowRotatingOffset)
{
    const MachineDesc machine = unifiedGpMachine(8);
    const CompileResult result =
        compileUnified(kernelFirstOrderRecurrence(), machine);
    ASSERT_TRUE(result.success);
    const RegisterAllocation allocation =
        allocateRegisters(result.loop, result.schedule, machine);
    const std::string text = emitKernel(result.loop, result.schedule,
                                        allocation, machine);
    // acc reads itself one iteration back.
    EXPECT_NE(text.find("[-1]"), std::string::npos);
}

TEST(Codegen, PipelineHasPrologueKernelEpilogue)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Compiled compiled = compile(kernelHydro(), machine);
    const std::string text =
        emitPipeline(compiled.result.loop, compiled.result.schedule,
                     compiled.allocation, machine, 2);
    EXPECT_NE(text.find("; prologue"), std::string::npos);
    EXPECT_NE(text.find("; steady state"), std::string::npos);
    EXPECT_NE(text.find("; epilogue"), std::string::npos);
    // Iteration tags appear in fill/drain code.
    EXPECT_NE(text.find("[i0]"), std::string::npos);
}

TEST(Codegen, MveKernelUnrollsByTheFactor)
{
    const MachineDesc machine = unifiedGpMachine(8);
    const CompileResult result =
        compileUnified(kernelFirstOrderRecurrence(), machine);
    ASSERT_TRUE(result.success);
    const RegisterAllocation allocation =
        allocateRegisters(result.loop, result.schedule, machine);
    const std::string text = emitMveKernel(
        result.loop, result.schedule, allocation, machine);
    EXPECT_NE(text.find("unrolled x" +
                        std::to_string(allocation.mveFactor)),
              std::string::npos);
    EXPECT_EQ(countOccurrences(text, "; unrolled copy "),
              static_cast<size_t>(allocation.mveFactor));
    // Each unrolled copy lists the full kernel once.
    EXPECT_EQ(countOccurrences(text, "fadd("),
              static_cast<size_t>(allocation.mveFactor));
}

TEST(Codegen, MveKernelNamesInstancesExplicitly)
{
    // A value with lifetime above II gets #instance suffixes.
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::Load);
    const NodeId b = graph.addNode(Opcode::Store);
    graph.addEdge(a, b);
    graph.seal();
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule schedule;
    schedule.ii = 2;
    schedule.startCycle = {0, 5};
    const MachineDesc machine = unifiedGpMachine(4);
    const RegisterAllocation allocation =
        allocateRegisters(loop, schedule, machine);
    ASSERT_EQ(allocation.mveFactor, 3);
    const std::string text =
        emitMveKernel(loop, schedule, allocation, machine);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("#1"), std::string::npos);
    EXPECT_NE(text.find("#2"), std::string::npos);
}

TEST(Codegen, SingleStageLoopHasEmptyFill)
{
    // A loop whose schedule fits one stage needs no prologue ops.
    Dfg graph;
    graph.addNode(Opcode::IntAlu);
    graph.seal();
    const MachineDesc machine = unifiedGpMachine(8);
    const CompileResult result = compileUnified(graph, machine);
    ASSERT_TRUE(result.success);
    ASSERT_EQ(result.schedule.stageCount(), 1);
    const RegisterAllocation allocation =
        allocateRegisters(result.loop, result.schedule, machine);
    const std::string text = emitPipeline(
        result.loop, result.schedule, allocation, machine, 1);
    EXPECT_NE(text.find("; steady state"), std::string::npos);
}

} // namespace
} // namespace cams
