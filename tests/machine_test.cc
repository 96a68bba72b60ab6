/**
 * @file
 * Unit tests for machine descriptions and the paper's configurations.
 */

#include <gtest/gtest.h>

#include <limits>

#include "machine/configs.hh"
#include "machine/machine.hh"

namespace cams
{
namespace
{

TEST(Machine, GpClusterExecutesEverything)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    EXPECT_EQ(machine.numClusters(), 2);
    EXPECT_EQ(machine.totalWidth(), 8);
    for (int cls = 0; cls < numFuClasses; ++cls) {
        EXPECT_EQ(machine.fuCount(0, static_cast<FuClass>(cls)), 4);
    }
    EXPECT_TRUE(machine.broadcast());
    EXPECT_TRUE(machine.canExecute(Opcode::FpSqrt));
    EXPECT_TRUE(machine.canExecute(Opcode::Copy));
}

TEST(Machine, FsClusterHasDedicatedPools)
{
    const MachineDesc machine = busedFsMachine(4, 4, 2);
    EXPECT_EQ(machine.totalWidth(), 16);
    EXPECT_EQ(machine.fuCount(1, FuClass::Memory), 1);
    EXPECT_EQ(machine.fuCount(1, FuClass::Integer), 2);
    EXPECT_EQ(machine.fuCount(1, FuClass::Float), 1);
}

TEST(Machine, SingleClusterCannotCopy)
{
    const MachineDesc unified = unifiedGpMachine(8);
    EXPECT_FALSE(unified.canExecute(Opcode::Copy));
}

TEST(Machine, UnifiedEquivalentOfGp)
{
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const MachineDesc unified = machine.unifiedEquivalent();
    EXPECT_EQ(unified.numClusters(), 1);
    EXPECT_EQ(unified.totalWidth(), 16);
    EXPECT_TRUE(unified.cluster(0).usesGpPool());
}

TEST(Machine, UnifiedEquivalentOfFs)
{
    const MachineDesc machine = busedFsMachine(2, 2, 1);
    const MachineDesc unified = machine.unifiedEquivalent();
    EXPECT_EQ(unified.numClusters(), 1);
    EXPECT_EQ(unified.fuCount(0, FuClass::Memory), 2);
    EXPECT_EQ(unified.fuCount(0, FuClass::Integer), 4);
    EXPECT_EQ(unified.fuCount(0, FuClass::Float), 2);
}

TEST(Machine, UnifiedEquivalentOfGrid)
{
    const MachineDesc unified = gridMachine().unifiedEquivalent();
    EXPECT_EQ(unified.fuCount(0, FuClass::Memory), 4);
    EXPECT_EQ(unified.fuCount(0, FuClass::Integer), 4);
    EXPECT_EQ(unified.fuCount(0, FuClass::Float), 4);
}

TEST(Machine, BusNeighborsAreAllOthers)
{
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const auto neighbors = machine.neighbors(2);
    EXPECT_EQ(neighbors, (std::vector<ClusterId>{0, 1, 3}));
}

TEST(Machine, GridTopology)
{
    const MachineDesc grid = gridMachine();
    EXPECT_EQ(grid.numClusters(), 4);
    EXPECT_EQ(grid.interconnect, InterconnectKind::PointToPoint);
    EXPECT_EQ(grid.links.size(), 4u);
    // Each corner has exactly two neighbors; diagonals are not linked.
    EXPECT_EQ(grid.neighbors(0), (std::vector<ClusterId>{1, 2}));
    EXPECT_EQ(grid.neighbors(3), (std::vector<ClusterId>{1, 2}));
    EXPECT_EQ(grid.linkBetween(0, 3), -1);
    EXPECT_GE(grid.linkBetween(0, 1), 0);
    EXPECT_EQ(grid.linkBetween(1, 0), grid.linkBetween(0, 1));
}

TEST(Machine, GridRoutes)
{
    const MachineDesc grid = gridMachine();
    const auto direct = grid.route(0, 1);
    EXPECT_EQ(direct, (std::vector<ClusterId>{0, 1}));
    const auto diagonal = grid.route(0, 3);
    ASSERT_EQ(diagonal.size(), 3u);
    EXPECT_EQ(diagonal.front(), 0);
    EXPECT_EQ(diagonal.back(), 3);
}

TEST(Machine, BusRouteIsDirect)
{
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    EXPECT_EQ(machine.route(3, 0), (std::vector<ClusterId>{3, 0}));
}

TEST(Machine, ValidateRejectsBadMachines)
{
    MachineDesc machine;
    machine.name = "broken";
    EXPECT_DEATH({ machine.validate(); }, "no clusters");

    MachineDesc no_bus = busedGpMachine(2, 2, 1);
    no_bus.numBuses = 0;
    EXPECT_DEATH({ no_bus.validate(); }, "needs buses");

    MachineDesc split = gridMachine();
    split.links = {{0, 1}}; // clusters 2 and 3 stranded
    EXPECT_DEATH({ split.validate(); }, "not connected");
}

TEST(Machine, CountsAboveTheCeilingAreRefused)
{
    // INT_MAX units once passed, and unifiedEquivalent() then
    // overflowed summing them.
    const MachineDesc fs = busedFsMachine(2, 2, 1);
    MachineDesc huge = fs;
    huge.clusters[0].fsUnits.fill(std::numeric_limits<int>::max());
    EXPECT_NE(huge.validationError().find("function units in all above"),
              std::string::npos)
        << huge.validationError();

    // The ceiling bounds the machine's units in all, so the unified
    // equivalent of a machine at the ceiling is valid too.
    MachineDesc full = fs;
    full.clusters[0].fsUnits = {maxResourceCount - 4, 0, 0};
    EXPECT_EQ(full.totalWidth(), maxResourceCount);
    EXPECT_EQ(full.validationError(), "");
    EXPECT_EQ(full.unifiedEquivalent().validationError(), "");
    ++full.clusters[1].fsUnits[0];
    EXPECT_NE(full.validationError(), "");

    MachineDesc ports = fs;
    ports.clusters[1].writePorts = maxResourceCount + 1;
    EXPECT_NE(ports.validationError().find("port count above"),
              std::string::npos)
        << ports.validationError();
    MachineDesc buses = fs;
    buses.numBuses = maxResourceCount + 1;
    EXPECT_NE(buses.validationError().find("bus count above"),
              std::string::npos)
        << buses.validationError();
}

TEST(Machine, PaperMachinesAndUnifiedEquivalentsValidate)
{
    std::vector<MachineDesc> machines;
    for (int ports = 1; ports <= 3; ++ports) {
        machines.push_back(gridMachine(ports));
        for (int clusters : {2, 4, 6, 8}) {
            for (int buses = 1; buses <= 8; ++buses) {
                machines.push_back(busedGpMachine(clusters, buses, ports));
                machines.push_back(busedFsMachine(clusters, buses, ports));
            }
        }
    }
    for (const MachineDesc &machine : machines) {
        EXPECT_EQ(machine.validationError(), "") << machine.name;
        EXPECT_EQ(machine.unifiedEquivalent().validationError(), "")
            << machine.name;
    }
}

TEST(Machine, ConfigNamesAreDescriptive)
{
    EXPECT_EQ(busedGpMachine(2, 2, 1).name, "2c-gp-2b-1p");
    EXPECT_EQ(busedFsMachine(4, 4, 2).name, "4c-fs-4b-2p");
    EXPECT_EQ(gridMachine(2).name, "4c-grid-2p");
}

} // namespace
} // namespace cams
