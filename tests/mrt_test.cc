/**
 * @file
 * Unit tests for the resource model and the modulo reservation table.
 */

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "mrt/mrt.hh"

namespace cams
{
namespace
{

/** A literal request: the table takes its requests as spans. */
using Req = std::vector<PoolId>;

TEST(ResourceModel, GpPoolsAlias)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    EXPECT_EQ(model.fuPool(0, FuClass::Memory),
              model.fuPool(0, FuClass::Float));
    EXPECT_NE(model.fuPool(0, FuClass::Memory),
              model.fuPool(1, FuClass::Memory));
    EXPECT_EQ(model.capacity(model.fuPool(0, FuClass::Integer)), 4);
    EXPECT_EQ(model.fuPool(0, FuClass::None), invalidPool);
}

TEST(ResourceModel, FsPoolsSeparate)
{
    const ResourceModel model(busedFsMachine(2, 2, 1));
    const PoolId mem = model.fuPool(0, FuClass::Memory);
    const PoolId intp = model.fuPool(0, FuClass::Integer);
    const PoolId fp = model.fuPool(0, FuClass::Float);
    EXPECT_NE(mem, intp);
    EXPECT_NE(intp, fp);
    EXPECT_EQ(model.capacity(mem), 1);
    EXPECT_EQ(model.capacity(intp), 2);
    EXPECT_EQ(model.capacity(fp), 1);
}

TEST(ResourceModel, PortsAndBus)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    EXPECT_NE(model.readPool(0), invalidPool);
    EXPECT_NE(model.writePool(1), invalidPool);
    EXPECT_NE(model.busPool(), invalidPool);
    EXPECT_EQ(model.capacity(model.busPool()), 2);
    EXPECT_EQ(model.capacity(model.readPool(0)), 1);
}

TEST(ResourceModel, UnifiedHasNoPorts)
{
    const ResourceModel model(unifiedGpMachine(8));
    EXPECT_EQ(model.readPool(0), invalidPool);
    EXPECT_EQ(model.busPool(), invalidPool);
}

TEST(ResourceModel, PoolNamesFollowTheLayout)
{
    auto names = [](const MachineDesc &machine) {
        const ResourceModel model(machine);
        std::string out;
        for (PoolId pool = 0; pool < model.numPools(); ++pool)
            out += (pool > 0 ? " " : "") + model.poolName(pool);
        return out;
    };
    EXPECT_EQ(names(busedGpMachine(2, 2, 1)),
              "gp@0 rd@0 wr@0 gp@1 rd@1 wr@1 bus");
    EXPECT_EQ(names(busedFsMachine(2, 2, 1)),
              "mem@0 int@0 fp@0 rd@0 wr@0 mem@1 int@1 fp@1 rd@1 wr@1 bus");
    EXPECT_EQ(names(gridMachine()),
              "mem@0 int@0 fp@0 rd@0 wr@0 mem@1 int@1 fp@1 rd@1 wr@1 "
              "mem@2 int@2 fp@2 rd@2 wr@2 mem@3 int@3 fp@3 rd@3 wr@3 "
              "link0-1 link2-3 link0-2 link1-3");
    EXPECT_EQ(names(unifiedGpMachine(8)), "gp@0");
}

TEST(ResourceModel, OpRequestUsesFuPool)
{
    const ResourceModel model(busedFsMachine(2, 2, 1));
    std::vector<PoolId> request;
    model.opRequestInto(1, Opcode::Load, request);
    ASSERT_EQ(request.size(), 1u);
    EXPECT_EQ(request[0], model.fuPool(1, FuClass::Memory));
}

TEST(ResourceModel, BroadcastCopyRequest)
{
    const ResourceModel model(busedGpMachine(4, 4, 2));
    std::vector<PoolId> request;
    model.copyRequestInto(0, std::vector<ClusterId>{1, 3}, request);
    // read@0, bus, write@1, write@3.
    ASSERT_EQ(request.size(), 4u);
    EXPECT_EQ(request[0], model.readPool(0));
    EXPECT_EQ(request[1], model.busPool());
    EXPECT_EQ(request[2], model.writePool(1));
    EXPECT_EQ(request[3], model.writePool(3));
}

TEST(ResourceModel, PointToPointCopyRequest)
{
    const MachineDesc grid = gridMachine();
    const ResourceModel model(grid);
    std::vector<PoolId> request;
    model.copyRequestInto(0, std::vector<ClusterId>{1}, request);
    ASSERT_EQ(request.size(), 3u);
    EXPECT_EQ(request[0], model.readPool(0));
    EXPECT_EQ(request[1], model.linkPool(grid.linkBetween(0, 1)));
    EXPECT_EQ(request[2], model.writePool(1));
}

TEST(ResourceModel, PointToPointCopyNeedsLink)
{
    const ResourceModel model(gridMachine());
    std::vector<PoolId> request;
    EXPECT_DEATH(
        { model.copyRequestInto(0, std::vector<ClusterId>{3}, request); },
        "no link");
}

/** Occupies the first row that fits; returns it, or -1 when full. */
int
occupyFirstFit(Mrt &mrt, const Req &request)
{
    const int row = mrt.findRow(request);
    if (row >= 0)
        mrt.occupy(request, row);
    return row;
}

TEST(Mrt, OccupyAndFree)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 2);
    const PoolId gp = model.fuPool(0, FuClass::Integer);
    EXPECT_EQ(mrt.freeTotal(gp), 8); // 4 units x II 2

    const int row = occupyFirstFit(mrt, Req{gp});
    EXPECT_EQ(row, 0);
    EXPECT_EQ(mrt.freeTotal(gp), 7);
    EXPECT_EQ(mrt.usedTotal(gp), 1);

    mrt.free(Req{gp}, row);
    EXPECT_EQ(mrt.freeTotal(gp), 8);
}

TEST(Mrt, RowFillsThenOverflows)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 1);
    const PoolId gp = model.fuPool(0, FuClass::Integer);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(occupyFirstFit(mrt, Req{gp}), 0);
    EXPECT_EQ(occupyFirstFit(mrt, Req{gp}), -1);
    EXPECT_EQ(mrt.findRow(Req{gp}), -1);
}

TEST(Mrt, FirstFitSkipsFullRows)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 3);
    const PoolId read = model.readPool(0);
    // One read port per row; fill row 0 and 1.
    mrt.occupy(Req{read}, 0);
    mrt.occupy(Req{read}, 1);
    EXPECT_EQ(occupyFirstFit(mrt, Req{read}), 2);
}

TEST(Mrt, JointRequestNeedsAllPoolsInOneRow)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 2);
    const PoolId read = model.readPool(0);
    const PoolId bus = model.busPool();
    // Fill the read port in row 0 and the bus in row 1: a joint
    // (read, bus) request no longer fits anywhere.
    mrt.occupy(Req{read}, 0);
    mrt.occupy(Req{bus}, 1);
    mrt.occupy(Req{bus}, 1);
    EXPECT_TRUE(mrt.canReserveAt(Req{read, bus}, 1) == false);
    EXPECT_EQ(mrt.findRow(Req{read, bus}), -1);
}

TEST(Mrt, DuplicatePoolsInOneRequest)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 1);
    const PoolId bus = model.busPool(); // capacity 2
    EXPECT_TRUE(mrt.canReserveAt(Req{bus, bus}, 0));
    mrt.occupy(Req{bus, bus}, 0);
    EXPECT_FALSE(mrt.canReserveAt(Req{bus}, 0));
}

TEST(Mrt, DoubleFreeDies)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 1);
    const PoolId gp = model.fuPool(0, FuClass::Integer);
    mrt.occupy(Req{gp}, 0);
    mrt.free(Req{gp}, 0);
    EXPECT_DEATH({ mrt.free(Req{gp}, 0); }, "double release");
}

} // namespace
} // namespace cams
