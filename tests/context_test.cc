/**
 * @file
 * Tests of the per-loop analysis layer: the incremental TimingSolver
 * against analyzeTiming, the LoopContext cache against the direct
 * analyses, and the word-scan MRT against a row-by-row count of its
 * free slots. tests/schedule_digest_test.cc pins the schedules and
 * search trajectories the layer produces.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/analysis.hh"
#include "graph/recmii.hh"
#include "machine/configs.hh"
#include "mrt/mrt.hh"
#include "pipeline/context.hh"
#include "pipeline/driver.hh"
#include "support/random.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

void
expectSameTiming(const TimeAnalysis &a, const TimeAnalysis &b)
{
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.asap, b.asap);
    EXPECT_EQ(a.alap, b.alap);
    EXPECT_EQ(a.mobility, b.mobility);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.criticalPath, b.criticalPath);
}

TEST(TimingSolver, MatchesFromScratchAcrossEscalation)
{
    const std::vector<Dfg> suite = buildSuite(32, 0x5EED0001ULL);
    for (const Dfg &loop : suite) {
        SCOPED_TRACE(loop.name());
        const int start = recMii(loop);
        TimingSolver solver(loop);
        // Walk an escalation upward, then revisit: every answer must
        // equal the from-scratch fixpoint at that II.
        for (int ii = start; ii < start + 6; ++ii)
            expectSameTiming(solver.solve(ii), analyzeTiming(loop, ii));
        expectSameTiming(solver.solve(start),
                         analyzeTiming(loop, start));
    }
}

TEST(TimingSolver, RepeatedIiIsACacheHit)
{
    const std::vector<Dfg> suite = buildSuite(4, 0x5EED0002ULL);
    const Dfg &loop = suite.front();
    const int start = recMii(loop);
    TimingSolver solver(loop);
    solver.solve(start);
    EXPECT_FALSE(solver.lastWasHit());
    solver.solve(start);
    EXPECT_TRUE(solver.lastWasHit());
    solver.solve(start + 1);
    EXPECT_FALSE(solver.lastWasHit());
}

TEST(LoopContext, MatchesDirectAnalyses)
{
    const std::vector<Dfg> suite = buildSuite(24, 0x5EED0003ULL);
    for (const Dfg &loop : suite) {
        SCOPED_TRACE(loop.name());
        LoopContext ctx(loop);
        const int direct = recMii(loop);
        EXPECT_EQ(ctx.recMii(), direct);
        for (int ii = std::max(1, direct - 2); ii < direct + 3; ++ii)
            EXPECT_EQ(ctx.schedulableAt(ii), direct <= ii);
    }
}

TEST(LoopContext, FeasibilityBoundsCacheWithoutRecMii)
{
    const std::vector<Dfg> suite = buildSuite(4, 0x5EED0004ULL);
    const Dfg &loop = suite.front();
    const int direct = recMii(loop);
    LoopContext ctx(loop);
    // Never ask for recMii(): the monotone bounds alone must answer
    // repeat queries from cache.
    ASSERT_TRUE(ctx.schedulableAt(direct));
    const long misses = ctx.misses();
    EXPECT_TRUE(ctx.schedulableAt(direct));
    EXPECT_TRUE(ctx.schedulableAt(direct + 5));
    EXPECT_EQ(ctx.misses(), misses);
    EXPECT_GT(ctx.hits(), 0);
}

/** canReserveAt from the per-row slot counts alone: every requested
 *  pool, counted with its multiplicity, must have that many free. */
bool
fitsByCount(const Mrt &mrt, const std::vector<PoolId> &request, int row)
{
    for (PoolId pool : request) {
        const long need = std::count(request.begin(), request.end(), pool);
        if (mrt.freeInRow(pool, row) < need)
            return false;
    }
    return true;
}

/** scanRows by walking the rows one at a time with fitsByCount. */
int
scanByCount(const Mrt &mrt, const std::vector<PoolId> &request,
            int startRow, int count, int step)
{
    int row = startRow;
    for (int skipped = 0; skipped < count; ++skipped) {
        if (fitsByCount(mrt, request, row))
            return skipped;
        row = (row + step + mrt.ii()) % mrt.ii();
    }
    return -1;
}

/**
 * One randomized Mrt trajectory; every word-scan answer along the way
 * must equal the row-by-row count over freeInRow, which reads the
 * per-row slot counts the free-row bitmasks shadow.
 */
void
runCheckedMrtTrajectory(const MachineDesc &machine, uint64_t seed, int ii)
{
    const ResourceModel model(machine);
    Mrt mrt(model, ii);
    Rng rng(seed);

    // A menu of requests: single pools plus a few multi-pool combos
    // (with duplicates when the machine allows, via repeated picks).
    std::vector<std::vector<PoolId>> menu;
    for (PoolId pool = 0; pool < model.numPools(); ++pool)
        menu.push_back({pool});
    for (int i = 0; i < 6; ++i) {
        std::vector<PoolId> combo;
        const int size = rng.uniformInt(2, 4);
        for (int j = 0; j < size; ++j) {
            combo.push_back(static_cast<PoolId>(
                rng.uniformInt(0, model.numPools() - 1)));
        }
        menu.push_back(std::move(combo));
    }

    // Each occupied slot set: its request and row.
    std::vector<std::pair<const std::vector<PoolId> *, int>> held;
    for (int step = 0; step < 400; ++step) {
        const std::vector<PoolId> &request =
            menu[rng.uniformInt(0, static_cast<int>(menu.size()) - 1)];
        const int row = rng.uniformInt(0, ii - 1);
        ASSERT_EQ(mrt.canReserveAt(request, row),
                  fitsByCount(mrt, request, row))
            << "step " << step << " row " << row;
        const int count = rng.uniformInt(1, ii);
        const int step_dir = rng.chance(0.5) ? 1 : -1;
        ASSERT_EQ(mrt.scanRows(request, row, count, step_dir),
                  scanByCount(mrt, request, row, count, step_dir))
            << "step " << step << " row " << row << " count " << count
            << " dir " << step_dir;

        if (rng.chance(0.65) && mrt.canReserveAt(request, row)) {
            mrt.occupy(request, row);
            held.emplace_back(&request, row);
        } else if (!held.empty() && rng.chance(0.5)) {
            const int victim =
                rng.uniformInt(0, static_cast<int>(held.size()) - 1);
            mrt.free(*held[victim].first, held[victim].second);
            held.erase(held.begin() + victim);
        }
    }
    EXPECT_GT(mrt.wordScans(), 0);
}

TEST(MrtWordScan, AgreesWithRowCountsUnderRandomTraffic)
{
    runCheckedMrtTrajectory(busedGpMachine(2, 2, 1), 0x11AA22BBULL, 7);
    runCheckedMrtTrajectory(busedFsMachine(2, 2, 1), 0x33CC44DDULL, 13);
    runCheckedMrtTrajectory(gridMachine(), 0x55EE66FFULL, 64);
    // An II past one occupancy word exercises the multi-word hop.
    runCheckedMrtTrajectory(busedGpMachine(4, 2, 2), 0x7788AA99ULL,
                            131);
}

TEST(MrtWordScan, ResetReusesTheTable)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    Mrt mrt(model, 5);
    const std::vector<PoolId> request = {
        model.fuPool(0, FuClass::Integer)};
    for (int row = 0; row < 5; ++row)
        ASSERT_TRUE(mrt.canReserveAt(request, row));
    mrt.occupy(request, 3);
    mrt.reset(8);
    for (int row = 0; row < 8; ++row)
        EXPECT_TRUE(mrt.canReserveAt(request, row));
    EXPECT_EQ(mrt.scanRows(request, 5, 8, 1), 0);
}

TEST(CompileResult, ReportsCacheCounters)
{
    const std::vector<Dfg> suite = buildSuite(6, 0x5EED0005ULL);
    const CompileResult result =
        compileClustered(suite.front(), busedGpMachine(2, 2, 1));
    ASSERT_TRUE(result.success);
    EXPECT_GT(result.ctxMisses, 0);
    EXPECT_GT(result.mrtWordScans, 0);
}

} // namespace
} // namespace cams
