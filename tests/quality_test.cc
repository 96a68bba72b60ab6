/**
 * @file
 * Quality tests against the exhaustive oracle: on small loops the
 * heuristic assignment must track the provably optimal II closely,
 * and whenever it deviates from the unified machine the oracle must
 * confirm the deviation (or the gap stay within one cycle).
 */

#include <gtest/gtest.h>

#include "assign/exhaustive.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/kernels.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

TEST(Oracle, TooLargeGraphsAreRefused)
{
    const ResourceModel model(busedGpMachine(2, 2, 1));
    const Dfg big = generateLoop(2, GeneratorParams{.minNodes = 40});
    EXPECT_EQ(exhaustiveFeasible(big, model, 4),
              ExhaustiveVerdict::TooLarge);
    EXPECT_EQ(exhaustiveBestIi(big, model, 1, 4), 0);
}

TEST(Oracle, TrivialLoopFeasibleAtOne)
{
    Dfg graph;
    graph.addNode(Opcode::IntAlu);
    graph.seal();
    const ResourceModel model(busedGpMachine(2, 2, 1));
    EXPECT_EQ(exhaustiveFeasible(graph, model, 1),
              ExhaustiveVerdict::Feasible);
}

TEST(Oracle, DetectsResourceInfeasibility)
{
    // 10 ops on total width 8 cannot fit at II 1.
    Dfg graph;
    for (int i = 0; i < 10; ++i)
        graph.addNode(Opcode::IntAlu);
    graph.seal();
    const ResourceModel model(busedGpMachine(2, 2, 1));
    EXPECT_EQ(exhaustiveFeasible(graph, model, 1),
              ExhaustiveVerdict::Infeasible);
    EXPECT_EQ(exhaustiveBestIi(graph, model, 1, 4), 2);
}

TEST(Oracle, DetectsRecurrenceCostOfSplitting)
{
    // A latency-4 recurrence of 5 integer ops on 2x2-GP clusters at
    // II 4: the SCC fits one cluster only if the cluster has room.
    Dfg graph = kernelTridiag();
    const ResourceModel model(busedGpMachine(2, 2, 1));
    EXPECT_EQ(exhaustiveFeasible(graph, model, 4),
              ExhaustiveVerdict::Feasible);
    // At II 3 even the unified machine fails (RecMII 4).
    EXPECT_EQ(exhaustiveFeasible(graph, model, 3),
              ExhaustiveVerdict::Infeasible);
}

TEST(Quality, HeuristicTracksOracleOnSmallLoops)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MachineDesc unified = machine.unifiedEquivalent();

    int checked = 0;
    int optimal = 0;
    for (uint64_t seed = 10000; seed < 10200 && checked < 40; ++seed) {
        const Dfg loop = generateLoop(seed);
        if (loop.numNodes() > 12)
            continue;
        const CompileResult base = compileUnified(loop, unified);
        ASSERT_TRUE(base.success);
        const CompileResult clustered = compileClustered(loop, machine);
        ASSERT_TRUE(clustered.success);

        const int best = exhaustiveBestIi(loop, model, base.mii.mii,
                                          clustered.ii);
        if (best == 0)
            continue; // too large after all
        ++checked;
        ASSERT_NE(best, -1); // the heuristic's II is always feasible
        // The heuristic may only lose one cycle to the oracle (the
        // oracle's model is count-mode, so it is itself a lower
        // bound on what any scheduler can realize).
        EXPECT_LE(clustered.ii - best, 1) << "seed " << seed;
        if (clustered.ii == best)
            ++optimal;
    }
    ASSERT_GE(checked, 20);
    // The heuristic should be optimal on the vast majority.
    EXPECT_GE(100.0 * optimal / checked, 85.0);
}

TEST(Quality, DeviationsAreMostlyProvablyUnavoidable)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MachineDesc unified = machine.unifiedEquivalent();

    int deviations = 0;
    int confirmed = 0;
    for (uint64_t seed = 11000; seed < 11400; ++seed) {
        const Dfg loop = generateLoop(seed);
        if (loop.numNodes() > 12)
            continue;
        const CompileResult base = compileUnified(loop, unified);
        const CompileResult clustered = compileClustered(loop, machine);
        ASSERT_TRUE(base.success && clustered.success);
        if (clustered.ii == base.ii)
            continue;
        ++deviations;
        if (exhaustiveFeasible(loop, model, base.ii) ==
            ExhaustiveVerdict::Infeasible) {
            ++confirmed;
        }
    }
    // Most deviations on small loops are certified optimal by the
    // oracle (the calibration suite keeps a small gap).
    if (deviations > 0) {
        EXPECT_GE(confirmed, deviations / 2);
    }
}

} // namespace
} // namespace cams
