/**
 * @file
 * Tests for the machine-description text format.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "machine/configs.hh"
#include "machine/machinetext.hh"

namespace cams
{
namespace
{

TEST(MachineText, ParseBusedGp)
{
    const std::string text = "machine demo\n"
                             "interconnect bus\n"
                             "buses 2\n"
                             "cluster gp 4 ports 1 1\n"
                             "cluster gp 4 ports 1 1\n";
    MachineDesc machine;
    std::string error;
    ASSERT_TRUE(parseMachine(text, machine, error)) << error;
    EXPECT_EQ(machine.name, "demo");
    EXPECT_EQ(machine.numClusters(), 2);
    EXPECT_EQ(machine.numBuses, 2);
    EXPECT_TRUE(machine.cluster(0).usesGpPool());
    EXPECT_EQ(machine.cluster(1).readPorts, 1);
}

TEST(MachineText, ParseGrid)
{
    const std::string text = "machine grid\n"
                             "interconnect p2p\n"
                             "cluster fs 1 1 1 ports 2 2\n"
                             "cluster fs 1 1 1 ports 2 2\n"
                             "cluster fs 1 1 1 ports 2 2\n"
                             "cluster fs 1 1 1 ports 2 2\n"
                             "link 0 1\nlink 2 3\nlink 0 2\nlink 1 3\n";
    MachineDesc machine;
    std::string error;
    ASSERT_TRUE(parseMachine(text, machine, error)) << error;
    EXPECT_EQ(machine.interconnect, InterconnectKind::PointToPoint);
    EXPECT_EQ(machine.links.size(), 4u);
    EXPECT_EQ(machine.fuCount(2, FuClass::Float), 1);
}

TEST(MachineText, RoundTripPaperConfigs)
{
    for (const MachineDesc &machine :
         {busedGpMachine(2, 2, 1), busedGpMachine(4, 4, 2),
          busedFsMachine(2, 2, 1), gridMachine(),
          unifiedGpMachine(8)}) {
        const std::string text = serializeMachine(machine);
        MachineDesc parsed;
        std::string error;
        ASSERT_TRUE(parseMachine(text, parsed, error))
            << machine.name << ": " << error;
        EXPECT_EQ(parsed.numClusters(), machine.numClusters());
        EXPECT_EQ(parsed.numBuses, machine.numBuses);
        EXPECT_EQ(parsed.links.size(), machine.links.size());
        EXPECT_EQ(serializeMachine(parsed), text);
    }
}

TEST(MachineText, CommentsAndBlanksIgnored)
{
    const std::string text = "# a machine\n"
                             "\n"
                             "machine m   # named m\n"
                             "cluster gp 8 ports 0 0\n";
    MachineDesc machine;
    std::string error;
    ASSERT_TRUE(parseMachine(text, machine, error)) << error;
    EXPECT_EQ(machine.totalWidth(), 8);
}

TEST(MachineText, Rejections)
{
    MachineDesc machine;
    std::string error;

    EXPECT_FALSE(parseMachine("", machine, error));
    EXPECT_FALSE(parseMachine("cluster gp x ports 1 1\n", machine,
                              error));
    EXPECT_FALSE(parseMachine("bogus 3\n", machine, error));
    EXPECT_FALSE(parseMachine("interconnect ring\n", machine, error));
    // Multi-cluster bus machine without buses.
    EXPECT_FALSE(parseMachine("cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n",
                              machine, error));
    // Link to an undeclared cluster.
    EXPECT_FALSE(parseMachine("interconnect p2p\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "link 0 7\n",
                              machine, error));
    // Buses on a p2p machine.
    EXPECT_FALSE(parseMachine("interconnect p2p\n"
                              "buses 2\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "link 0 1\n",
                              machine, error));
    // Links on a bus machine.
    EXPECT_FALSE(parseMachine("buses 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "link 0 1\n",
                              machine, error));
}

TEST(MachineText, ImpossibleMachinesAreErrorsNotExits)
{
    MachineDesc machine;
    std::string error;

    // A cluster without function units.
    EXPECT_FALSE(parseMachine("buses 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster fs 0 0 0 ports 1 1\n",
                              machine, error));
    EXPECT_NE(error.find("no units"), std::string::npos) << error;

    // Two islands of links.
    error.clear();
    EXPECT_FALSE(parseMachine("interconnect p2p\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "cluster gp 4 ports 1 1\n"
                              "link 0 1\n"
                              "link 2 3\n",
                              machine, error));
    EXPECT_NE(error.find("not connected"), std::string::npos) << error;
}

TEST(MachineText, ClusterCountIsCapped)
{
    auto chain = [](int clusters) {
        std::string text = "interconnect p2p\n";
        for (int c = 0; c < clusters; ++c)
            text += "cluster gp 1 ports 1 1\n";
        for (int c = 1; c < clusters; ++c) {
            text += "link " + std::to_string(c - 1) + " " +
                    std::to_string(c) + "\n";
        }
        return text;
    };
    MachineDesc machine;
    std::string error;
    EXPECT_TRUE(parseMachine(chain(maxClusters), machine, error)) << error;
    EXPECT_FALSE(parseMachine(chain(maxClusters + 1), machine, error));
    EXPECT_NE(error.find("clusters"), std::string::npos) << error;
}

TEST(MachineText, CountsAboveTheCeilingAreRefused)
{
    MachineDesc huge = busedFsMachine(2, 2, 1);
    huge.clusters[0].fsUnits.fill(std::numeric_limits<int>::max());
    MachineDesc machine;
    std::string error;
    EXPECT_FALSE(parseMachine(serializeMachine(huge), machine, error));

    // Counts the number parser takes but no machine may hold.
    huge.clusters[0].fsUnits.fill(1000000000);
    error.clear();
    EXPECT_FALSE(parseMachine(serializeMachine(huge), machine, error));
    EXPECT_NE(error.find("above"), std::string::npos) << error;
}

TEST(MachineText, ShippedConfigsValidate)
{
    int parsed = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(CAMS_CONFIG_DIR)) {
        if (entry.path().extension() != ".mach")
            continue;
        SCOPED_TRACE(entry.path().string());
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        MachineDesc machine;
        std::string error;
        EXPECT_TRUE(parseMachine(text.str(), machine, error)) << error;
        EXPECT_EQ(machine.unifiedEquivalent().validationError(), "");
        ++parsed;
    }
    EXPECT_GE(parsed, 3);
}

TEST(MachineText, ErrorsCarryLineNumbers)
{
    MachineDesc machine;
    std::string error;
    EXPECT_FALSE(parseMachine("machine ok\nbroken here\n", machine,
                              error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
}

} // namespace
} // namespace cams
