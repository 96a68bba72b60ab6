/**
 * @file
 * Unit tests for point-to-point copy routing on the grid machine and
 * on a ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "assign/router.hh"
#include "machine/configs.hh"
#include "machine/machinetext.hh"
#include "mrt/mrt.hh"

namespace cams
{
namespace
{

/** planHops over the model's tree from @p src, as copies are routed. */
std::vector<Hop>
routeHops(const MachineDesc &machine, ClusterId src,
          const std::vector<ClusterId> &dsts)
{
    std::vector<Hop> hops;
    planHops(ResourceModel(machine).hopTree(src), dsts, hops);
    return hops;
}

TEST(Router, DirectNeighbor)
{
    const MachineDesc grid = gridMachine();
    const auto hops = routeHops(grid, 0, {1});
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_EQ(hops[0], (Hop{0, 1}));
}

TEST(Router, DiagonalNeedsTwoHops)
{
    const MachineDesc grid = gridMachine();
    const auto hops = routeHops(grid, 0, {3});
    ASSERT_EQ(hops.size(), 2u);
    EXPECT_EQ(hops[0].from, 0);
    EXPECT_EQ(hops[1].to, 3);
    EXPECT_EQ(hops[0].to, hops[1].from);
}

TEST(Router, SharedPrefixIsReused)
{
    // Destinations 1 and 3: the route to 3 goes through 1 (BFS visits
    // lower ids first), so the tree has exactly two hops.
    const MachineDesc grid = gridMachine();
    const auto hops = routeHops(grid, 0, {1, 3});
    EXPECT_EQ(hops.size(), 2u);
}

TEST(Router, AllDestinations)
{
    const MachineDesc grid = gridMachine();
    const auto hops = routeHops(grid, 0, {1, 2, 3});
    // Tree spanning three destinations: exactly three hops.
    EXPECT_EQ(hops.size(), 3u);
    // Parent-before-child order: a hop's source is the root or an
    // earlier hop's target.
    std::vector<ClusterId> landed = {0};
    for (const Hop &hop : hops) {
        EXPECT_NE(std::find(landed.begin(), landed.end(), hop.from),
                  landed.end());
        landed.push_back(hop.to);
    }
}

TEST(Router, DeterministicAcrossCalls)
{
    const MachineDesc grid = gridMachine();
    const auto first = routeHops(grid, 2, {0, 1, 3});
    const auto second = routeHops(grid, 2, {0, 1, 3});
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], second[i]);
}

TEST(Router, SubsetProducesSubtree)
{
    // The hop tree of a subset of destinations is a subset of the hop
    // tree for all destinations (the unassign path relies on this).
    const MachineDesc grid = gridMachine();
    const auto full = routeHops(grid, 0, {1, 2, 3});
    const auto sub = routeHops(grid, 0, {3});
    for (const Hop &hop : sub) {
        EXPECT_NE(std::find(full.begin(), full.end(), hop), full.end());
    }
}

/**
 * The hops planHops must produce: every edge of every
 * MachineDesc::route path from @p src to a destination, once, ordered
 * by (depth, target id).
 */
std::vector<Hop>
unionOfRoutes(const MachineDesc &machine, ClusterId src,
              const std::vector<ClusterId> &dsts)
{
    std::map<std::pair<int, ClusterId>, ClusterId> byDepth;
    for (ClusterId dst : dsts) {
        const std::vector<ClusterId> path = machine.route(src, dst);
        for (size_t i = 1; i < path.size(); ++i)
            byDepth[{static_cast<int>(i), path[i]}] = path[i - 1];
    }
    std::vector<Hop> hops;
    for (const auto &[key, from] : byDepth)
        hops.push_back({from, key.second});
    return hops;
}

/** Every source and every non-empty destination subset. */
void
expectHopsAreUnionOfRoutes(const MachineDesc &machine)
{
    const ResourceModel model(machine);
    const int n = machine.numClusters();
    std::vector<Hop> fromMachine;
    std::vector<Hop> fromModel;
    for (ClusterId src = 0; src < n; ++src) {
        for (unsigned subset = 1; subset < (1u << n); ++subset) {
            if (subset >> src & 1)
                continue;
            std::vector<ClusterId> dsts;
            for (ClusterId c = 0; c < n; ++c) {
                if (subset >> c & 1)
                    dsts.push_back(c);
            }
            SCOPED_TRACE(machine.name + " src " + std::to_string(src) +
                         " subset " + std::to_string(subset));
            const std::vector<Hop> expected =
                unionOfRoutes(machine, src, dsts);
            planHops(machine.hopTree(src), dsts, fromMachine);
            EXPECT_EQ(fromMachine, expected);
            planHops(model.hopTree(src), dsts, fromModel);
            EXPECT_EQ(fromModel, expected);
            uint64_t targets = 0;
            for (const Hop &hop : expected)
                targets |= uint64_t{1} << hop.to;
            EXPECT_EQ(hopTargets(model.hopTree(src), subset), targets);
        }
    }
}

TEST(Router, HopsAreTheUnionOfRoutesOnTheGrid)
{
    expectHopsAreUnionOfRoutes(gridMachine(2));
}

TEST(Router, HopsAreTheUnionOfRoutesOnARing)
{
    // Six clusters in a ring: each cluster's opposite is 3 hops away
    // both ways, so the tree must take the ascending-id side.
    std::string text = "machine ring6\ninterconnect p2p\n";
    for (int c = 0; c < 6; ++c)
        text += "cluster gp 2 ports 1 1\n";
    for (int c = 0; c < 6; ++c) {
        text += "link " + std::to_string(c) + " " +
                std::to_string((c + 1) % 6) + "\n";
    }
    MachineDesc ring;
    std::string error;
    ASSERT_TRUE(parseMachine(text, ring, error)) << error;
    expectHopsAreUnionOfRoutes(ring);

    // From 0, cluster 3 is reached through 1 and 2 (1 < 5).
    EXPECT_EQ(routeHops(ring, 0, {3}),
              (std::vector<Hop>{{0, 1}, {1, 2}, {2, 3}}));
    // From 3, cluster 0 is reached through 2 and 1 (2 < 4).
    EXPECT_EQ(routeHops(ring, 3, {0}),
              (std::vector<Hop>{{3, 2}, {2, 1}, {1, 0}}));
}

TEST(Router, BusedMachineIsRejected)
{
    const MachineDesc bused = busedGpMachine(2, 2, 1);
    EXPECT_DEATH({ routeHops(bused, 0, {1}); },
                 "point-to-point machines only");
}

} // namespace
} // namespace cams
