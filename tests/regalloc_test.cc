/**
 * @file
 * Tests for rotating register allocation: lifetime-derived counts,
 * per-file packing, broadcast alignment, the occupancy checker, and
 * end-to-end allocation of compiled kernels on every paper machine.
 */

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "regalloc/regalloc.hh"
#include "sched/regmetrics.hh"
#include "workload/kernels.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

Dfg
loadStoreChain()
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::Load);
    const NodeId b = graph.addNode(Opcode::Store);
    graph.addEdge(a, b);
    graph.seal();
    return graph;
}

TEST(RegAlloc, SimpleChain)
{
    Dfg graph = loadStoreChain();
    const MachineDesc machine = unifiedGpMachine(8);
    const CompileResult result = compileUnified(graph, machine);
    ASSERT_TRUE(result.success);
    const RegisterAllocation allocation =
        allocateRegisters(result.loop, result.schedule, machine);
    std::string why;
    EXPECT_TRUE(verifyAllocation(result.loop, result.schedule,
                                 allocation, &why))
        << why;
    // Only the producer (load) holds a live value; the store is dead.
    ASSERT_EQ(allocation.values.size(), 1u);
    EXPECT_EQ(allocation.values[0].producer, 0);
    EXPECT_GE(allocation.registersPerFile[0], 1);
}

TEST(RegAlloc, LongLifetimeGetsMultipleRegisters)
{
    Dfg graph = loadStoreChain();
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule schedule;
    schedule.ii = 2;
    schedule.startCycle = {0, 5}; // lifetime 5 at II 2
    const RegisterAllocation allocation =
        allocateRegisters(loop, schedule, unifiedGpMachine(4));
    ASSERT_EQ(allocation.values.size(), 1u);
    EXPECT_EQ(allocation.values[0].count, 3); // ceil(5/2)
    EXPECT_EQ(allocation.mveFactor, 3);
    std::string why;
    EXPECT_TRUE(verifyAllocation(loop, schedule, allocation, &why))
        << why;
}

TEST(RegAlloc, InstanceRegisterRotates)
{
    ValueAllocation value;
    value.base = 4;
    value.count = 3;
    EXPECT_EQ(value.instanceRegister(0), 4);
    EXPECT_EQ(value.instanceRegister(1), 5);
    EXPECT_EQ(value.instanceRegister(2), 6);
    EXPECT_EQ(value.instanceRegister(3), 4);
}

TEST(RegAlloc, CheckerCatchesUndersizedRange)
{
    Dfg graph = loadStoreChain();
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule schedule;
    schedule.ii = 2;
    schedule.startCycle = {0, 5};
    RegisterAllocation allocation =
        allocateRegisters(loop, schedule, unifiedGpMachine(4));
    allocation.values[0].count = 1; // lie: one register for 3 instances
    std::string why;
    EXPECT_FALSE(verifyAllocation(loop, schedule, allocation, &why));
    EXPECT_NE(why.find("clash"), std::string::npos);
}

TEST(RegAlloc, CheckerCatchesMissingValue)
{
    Dfg graph = loadStoreChain();
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule schedule;
    schedule.ii = 2;
    schedule.startCycle = {0, 3};
    RegisterAllocation allocation =
        allocateRegisters(loop, schedule, unifiedGpMachine(4));
    allocation.values.clear();
    std::string why;
    EXPECT_FALSE(verifyAllocation(loop, schedule, allocation, &why));
    EXPECT_NE(why.find("without registers"), std::string::npos);
}

TEST(RegAlloc, BroadcastCopyAlignsAcrossFiles)
{
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    for (const Dfg &kernel : allKernels()) {
        const CompileResult result = compileClustered(kernel, machine);
        ASSERT_TRUE(result.success) << kernel.name();
        const RegisterAllocation allocation =
            allocateRegisters(result.loop, result.schedule, machine);
        std::string why;
        EXPECT_TRUE(verifyAllocation(result.loop, result.schedule,
                                     allocation, &why))
            << kernel.name() << ": " << why;
    }
}

TEST(RegAlloc, RegistersBoundedByMaxLiveTimesFiles)
{
    // Per-file sums can exceed MaxLive (packing is per value), but
    // each value's count matches its lifetime bound exactly.
    const MachineDesc machine = unifiedGpMachine(8);
    for (const Dfg &kernel : allKernels()) {
        const CompileResult result = compileUnified(kernel, machine);
        ASSERT_TRUE(result.success);
        const RegisterAllocation allocation =
            allocateRegisters(result.loop, result.schedule, machine);
        const RegMetrics metrics =
            computeRegMetrics(result.loop, result.schedule);
        EXPECT_EQ(allocation.mveFactor, metrics.mveFactor)
            << kernel.name();
        int total = 0;
        for (int regs : allocation.registersPerFile)
            total += regs;
        EXPECT_GE(total, metrics.maxLive) << kernel.name();
    }
}

TEST(RegAlloc, GeneratedLoopsAllocateCleanly)
{
    const MachineDesc machine = busedFsMachine(2, 2, 1);
    for (uint64_t seed = 8100; seed < 8110; ++seed) {
        const Dfg loop = generateLoop(seed);
        const CompileResult result = compileClustered(loop, machine);
        ASSERT_TRUE(result.success) << seed;
        const RegisterAllocation allocation =
            allocateRegisters(result.loop, result.schedule, machine);
        std::string why;
        EXPECT_TRUE(verifyAllocation(result.loop, result.schedule,
                                     allocation, &why))
            << seed << ": " << why;
    }
}

} // namespace
} // namespace cams
