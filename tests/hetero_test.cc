/**
 * @file
 * Heterogeneous-machine coverage: the paper states the techniques
 * handle "arbitrary numbers of clusters which can be homogeneous or
 * heterogeneous in the types of function units they contain". These
 * tests exercise asymmetric cluster sizes, mixed port counts, uneven
 * FS unit mixes, link topologies beyond the grid, and MRT dumps.
 */

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "mrt/mrt.hh"
#include "pipeline/driver.hh"
#include "sched/verifier.hh"
#include "sim/compare.hh"
#include "workload/kernels.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

/** 4 GP + 2 GP clusters with asymmetric ports. */
MachineDesc
lopsidedMachine()
{
    MachineDesc machine;
    machine.name = "lopsided";
    machine.interconnect = InterconnectKind::Bus;
    machine.numBuses = 2;
    ClusterDesc big;
    big.gpUnits = 4;
    big.readPorts = 2;
    big.writePorts = 1;
    ClusterDesc small;
    small.gpUnits = 2;
    small.readPorts = 1;
    small.writePorts = 2;
    machine.clusters = {big, small};
    machine.validate();
    return machine;
}

/** FS clusters with different specializations (mem-heavy, fp-heavy). */
MachineDesc
skewedFsMachine()
{
    MachineDesc machine;
    machine.name = "skewed-fs";
    machine.interconnect = InterconnectKind::Bus;
    machine.numBuses = 2;
    ClusterDesc memory_side;
    memory_side.fsUnits = {2, 2, 0}; // no FP units at all
    memory_side.readPorts = 1;
    memory_side.writePorts = 1;
    ClusterDesc fp_side;
    fp_side.fsUnits = {0, 1, 3}; // no memory units
    fp_side.readPorts = 1;
    fp_side.writePorts = 1;
    machine.clusters = {memory_side, fp_side};
    machine.validate();
    return machine;
}

/** A 3-cluster line: ends only reach each other through the middle. */
MachineDesc
lineMachine()
{
    MachineDesc machine;
    machine.name = "3c-line";
    machine.interconnect = InterconnectKind::PointToPoint;
    for (int c = 0; c < 3; ++c) {
        ClusterDesc cluster;
        cluster.gpUnits = 3;
        cluster.readPorts = 2;
        cluster.writePorts = 2;
        machine.clusters.push_back(cluster);
    }
    machine.links = {{0, 1}, {1, 2}};
    machine.validate();
    return machine;
}

TEST(Hetero, LopsidedClustersCompileAndVerify)
{
    const MachineDesc machine = lopsidedMachine();
    const ResourceModel model(machine);
    for (const Dfg &kernel : allKernels()) {
        const CompileResult result = compileClustered(kernel, machine);
        ASSERT_TRUE(result.success) << kernel.name();
        std::string why;
        EXPECT_TRUE(
            verifySchedule(result.loop, model, result.schedule, &why))
            << kernel.name() << ": " << why;
        const auto report = checkEquivalence(kernel, result.loop,
                                             result.schedule, machine);
        EXPECT_TRUE(report.equivalent) << kernel.name();
    }
}

TEST(Hetero, SkewedFsForcesCrossTraffic)
{
    // Memory ops can only run on cluster 0 and most FP only on
    // cluster 1: every load feeding an FP op must be copied across.
    const MachineDesc machine = skewedFsMachine();
    const CompileResult result =
        compileClustered(kernelInnerProduct(), machine);
    ASSERT_TRUE(result.success);
    EXPECT_GT(result.copies, 0);
    // Loads on the memory cluster, FP on the FP cluster.
    for (NodeId v = 0; v < result.loop.numOriginalNodes; ++v) {
        const Opcode op = result.loop.graph.node(v).op;
        if (isMemoryOpcode(op)) {
            EXPECT_EQ(result.loop.placement[v].cluster, 0);
        }
        if (isFloatOpcode(op)) {
            EXPECT_EQ(result.loop.placement[v].cluster, 1);
        }
    }
    const auto report = checkEquivalence(kernelInnerProduct(),
                                         result.loop, result.schedule,
                                         machine);
    EXPECT_TRUE(report.equivalent);
}

TEST(Hetero, SkewedFsRejectsImpossibleOps)
{
    // A machine with no FP units anywhere cannot take FP loops.
    MachineDesc machine = skewedFsMachine();
    machine.clusters[1].fsUnits[static_cast<int>(FuClass::Float)] = 0;
    machine.clusters[1].fsUnits[static_cast<int>(FuClass::Integer)] = 2;
    machine.validate();
    EXPECT_FALSE(machine.canExecute(Opcode::FpAdd));
    const ResourceModel model(machine);
    ClusterAssigner assigner(model);
    Dfg loop = kernelInnerProduct();
    EXPECT_DEATH({ assigner.run(loop, 8); }, "cannot execute");
}

TEST(Hetero, LineTopologyRoutesEndToEnd)
{
    const MachineDesc machine = lineMachine();
    EXPECT_EQ(machine.route(0, 2),
              (std::vector<ClusterId>{0, 1, 2}));
    const ResourceModel model(machine);
    for (uint64_t seed = 8300; seed < 8306; ++seed) {
        const Dfg loop = generateLoop(seed);
        const CompileResult result = compileClustered(loop, machine);
        ASSERT_TRUE(result.success) << seed;
        std::string why;
        EXPECT_TRUE(
            verifySchedule(result.loop, model, result.schedule, &why))
            << seed << ": " << why;
        const auto report = checkEquivalence(loop, result.loop,
                                             result.schedule, machine);
        EXPECT_TRUE(report.equivalent) << seed;
    }
}

TEST(Hetero, ResMiiRejectsMixedPools)
{
    MachineDesc machine = lopsidedMachine();
    machine.clusters[1].gpUnits = 0;
    machine.clusters[1].fsUnits = {1, 1, 1};
    machine.validate();
    Dfg loop = kernelHydro();
    EXPECT_DEATH({ resMii(loop, machine); }, "mixing");
}

TEST(Hetero, MrtDumpShowsOccupancy)
{
    const ResourceModel model(lopsidedMachine());
    Mrt mrt(model, 2);
    mrt.reserveAt(model.fuRequest(0, FuClass::Integer), 0);
    const std::string dump = mrt.dump();
    EXPECT_NE(dump.find("MRT II=2"), std::string::npos);
    EXPECT_NE(dump.find("gp@0"), std::string::npos);
    EXPECT_NE(dump.find("1/4"), std::string::npos);
    EXPECT_NE(dump.find("bus"), std::string::npos);
}

} // namespace
} // namespace cams
