/**
 * @file
 * Tests of the incremental-compilation layer: the A/B determinism
 * guarantee (cached and from-scratch pipelines produce byte-identical
 * results), the incremental TimingSolver against analyzeTiming, the
 * word-scan MRT against the reference row scan, and the LoopContext
 * cache itself.
 */

#include <gtest/gtest.h>

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

/** Asserts two compile results are indistinguishable, down to every
 *  start cycle, placement, and bookkeeping counter that must not
 *  depend on the caching mode. */
void
expectSameResult(const CompileResult &a, const CompileResult &b)
{
    ASSERT_EQ(a.success, b.success);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.mii.recMii, b.mii.recMii);
    EXPECT_EQ(a.mii.resMii, b.mii.resMii);
    EXPECT_EQ(a.mii.mii, b.mii.mii);
    EXPECT_EQ(a.copies, b.copies);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.assignRetries, b.assignRetries);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.failureDetail, b.failureDetail);
    EXPECT_EQ(a.finalIiTried, b.finalIiTried);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.verifierRejects, b.verifierRejects);
    if (!a.success)
        return;
    EXPECT_EQ(a.schedule.ii, b.schedule.ii);
    EXPECT_EQ(a.schedule.startCycle, b.schedule.startCycle);
    ASSERT_EQ(a.loop.placement.size(), b.loop.placement.size());
    for (size_t i = 0; i < a.loop.placement.size(); ++i) {
        EXPECT_EQ(a.loop.placement[i].cluster,
                  b.loop.placement[i].cluster);
        EXPECT_EQ(a.loop.placement[i].copyDsts,
                  b.loop.placement[i].copyDsts);
    }
}

/** Compiles the suite with and without the incremental layer and
 *  demands byte-identical outcomes, loop by loop. */
void
runDeterminismSweep(const MachineDesc &machine, SchedulerKind kind,
                    bool clustered)
{
    const std::vector<Dfg> suite = buildSuite(48, 0xAB12CD34ULL);
    const MachineDesc unified = machine.unifiedEquivalent();

    CompileOptions cached;
    cached.scheduler = kind;
    cached.incremental = true;
    CompileOptions scratch = cached;
    scratch.incremental = false;

    for (const Dfg &loop : suite) {
        const CompileResult a =
            clustered ? compileClustered(loop, machine, cached)
                      : compileUnified(loop, unified, cached);
        const CompileResult b =
            clustered ? compileClustered(loop, machine, scratch)
                      : compileUnified(loop, unified, scratch);
        SCOPED_TRACE(loop.name());
        expectSameResult(a, b);
    }
}

TEST(AbDeterminism, ClusteredSwing)
{
    runDeterminismSweep(busedGpMachine(2, 2, 1), SchedulerKind::Swing, true);
}

TEST(AbDeterminism, ClusteredIterative)
{
    runDeterminismSweep(busedGpMachine(2, 2, 1), SchedulerKind::Iterative,
                        true);
}

// Point-to-point routing, relays and their rollback.
TEST(AbDeterminism, GridSwing)
{
    runDeterminismSweep(gridMachine(2), SchedulerKind::Swing, true);
}

TEST(AbDeterminism, GridIterative)
{
    runDeterminismSweep(gridMachine(2), SchedulerKind::Iterative, true);
}

TEST(AbDeterminism, EightClusterSwing)
{
    runDeterminismSweep(busedGpMachine(8, 7, 3), SchedulerKind::Swing, true);
}

TEST(AbDeterminism, EightClusterIterative)
{
    runDeterminismSweep(busedGpMachine(8, 7, 3), SchedulerKind::Iterative,
                        true);
}

// The most eviction-heavy paper machine (~70 evictions per loop on
// this sweep's loops, against ~36 on the grid): exercises the unplace
// and shrink paths of the assigner's tallies.
TEST(AbDeterminism, FourClusterFsSwing)
{
    runDeterminismSweep(busedFsMachine(4, 2, 2), SchedulerKind::Swing,
                        true);
}

TEST(AbDeterminism, UnifiedSwing)
{
    runDeterminismSweep(busedGpMachine(2, 2, 1), SchedulerKind::Swing, false);
}

TEST(AbDeterminism, UnifiedIterative)
{
    runDeterminismSweep(busedGpMachine(2, 2, 1), SchedulerKind::Iterative,
                        false);
}

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

/** One randomized Mrt trajectory, mirrored in Word and Reference
 *  modes; every query along the way must agree. */
void
runMirroredMrtTrajectory(const MachineDesc &machine, uint64_t seed,
                         int ii)
{
    const ResourceModel model(machine);
    Mrt word(model, ii, MrtScanMode::Word);
    Mrt reference(model, ii, MrtScanMode::Reference);
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

    std::vector<Reservation> wordHeld;
    std::vector<Reservation> refHeld;
    for (int step = 0; step < 400; ++step) {
        const std::vector<PoolId> &request =
            menu[rng.uniformInt(0, static_cast<int>(menu.size()) - 1)];
        const int row = rng.uniformInt(0, ii - 1);
        ASSERT_EQ(word.canReserveAt(request, row),
                  reference.canReserveAt(request, row))
            << "step " << step << " row " << row;
        const int count = rng.uniformInt(1, ii);
        const int step_dir = rng.chance(0.5) ? 1 : -1;
        ASSERT_EQ(word.scanRows(request, row, count, step_dir),
                  reference.scanRows(request, row, count, step_dir))
            << "step " << step << " row " << row << " count " << count
            << " dir " << step_dir;

        if (rng.chance(0.65) && word.canReserveAt(request, row)) {
            wordHeld.push_back(word.reserveAt(request, row));
            refHeld.push_back(reference.reserveAt(request, row));
        } else if (!wordHeld.empty() && rng.chance(0.5)) {
            const int victim = rng.uniformInt(
                0, static_cast<int>(wordHeld.size()) - 1);
            word.release(wordHeld[victim]);
            reference.release(refHeld[victim]);
            wordHeld.erase(wordHeld.begin() + victim);
            refHeld.erase(refHeld.begin() + victim);
        }
    }
    // Reference mode records no word scans; word mode must have.
    EXPECT_EQ(reference.wordScans(), 0);
    EXPECT_GT(word.wordScans(), 0);
}

TEST(MrtWordScan, AgreesWithReferenceUnderRandomTraffic)
{
    runMirroredMrtTrajectory(busedGpMachine(2, 2, 1), 0x11AA22BBULL, 7);
    runMirroredMrtTrajectory(busedFsMachine(2, 2, 1), 0x33CC44DDULL,
                             13);
    runMirroredMrtTrajectory(gridMachine(), 0x55EE66FFULL, 64);
    // An II past one occupancy word exercises the multi-word hop.
    runMirroredMrtTrajectory(busedGpMachine(4, 2, 2), 0x7788AA99ULL,
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
    mrt.reserveAt(request, 3);
    mrt.reset(8);
    for (int row = 0; row < 8; ++row)
        EXPECT_TRUE(mrt.canReserveAt(request, row));
    EXPECT_EQ(mrt.scanRows(request, 5, 8, 1), 0);
}

TEST(CompileResult, IncrementalModeReportsCacheCounters)
{
    const std::vector<Dfg> suite = buildSuite(6, 0x5EED0005ULL);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    const CompileResult cached =
        compileClustered(suite.front(), machine, options);
    ASSERT_TRUE(cached.success);
    EXPECT_GT(cached.ctxMisses, 0);
    EXPECT_GT(cached.mrtWordScans, 0);

    options.incremental = false;
    const CompileResult scratch =
        compileClustered(suite.front(), machine, options);
    ASSERT_TRUE(scratch.success);
    EXPECT_EQ(scratch.ctxHits, 0);
    EXPECT_EQ(scratch.ctxMisses, 0);
    EXPECT_EQ(scratch.mrtWordScans, 0);
}

} // namespace
} // namespace cams
