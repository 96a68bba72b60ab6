/**
 * @file
 * Property-based sweeps: generated loops compiled on every paper
 * machine must satisfy the pipeline's invariants.
 *
 *  P1  the clustered pipeline terminates successfully;
 *  P2  the schedule passes the independent verifier;
 *  P3  the clustered II is never below the unified II;
 *  P4  the annotated loop is structurally valid, and removing its
 *      copies gives back exactly the original operations;
 *  P5  recurrences are never split when the clustered II matches the
 *      unified II on a machine whose copies have latency (a split
 *      would have raised RecMII above it);
 *  P6  the pipelined execution computes exactly the sequential
 *      loop's values on the VLIW simulator;
 *  P7  rotating register allocation of the schedule is sound;
 *  P8  stage scheduling keeps the schedule legal at the same II and
 *      never lengthens total lifetime;
 *  P9  each value's copies deliver it exactly to the clusters of its
 *      consumers, plus the relays on the routes there.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/recmii.hh"
#include "graph/scc.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "regalloc/regalloc.hh"
#include "sched/stage.hh"
#include "sched/verifier.hh"
#include "sim/compare.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

struct SweepParam
{
    const char *machineKind;
    int seedBase;
};

MachineDesc
machineFor(const std::string &kind)
{
    if (kind == "2c-gp")
        return busedGpMachine(2, 2, 1);
    if (kind == "4c-gp")
        return busedGpMachine(4, 4, 2);
    if (kind == "2c-fs")
        return busedFsMachine(2, 2, 1);
    if (kind == "4c-fs")
        return busedFsMachine(4, 4, 2);
    if (kind == "grid")
        return gridMachine();
    if (kind == "6c-gp")
        return busedGpMachine(6, 6, 3);
    if (kind == "8c-gp")
        return busedGpMachine(8, 7, 3);
    throw std::runtime_error("unknown machine kind");
}

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<const char *, int>>
{
};

TEST_P(PipelineSweep, InvariantsHold)
{
    const auto [kind, seed_base] = GetParam();
    const MachineDesc machine = machineFor(kind);
    const MachineDesc unified = machine.unifiedEquivalent();
    const ResourceModel model(machine);

    for (int i = 0; i < 12; ++i) {
        const uint64_t seed = static_cast<uint64_t>(seed_base) * 1000 + i;
        const Dfg loop = generateLoop(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " on " +
                     machine.name);

        const CompileResult base = compileUnified(loop, unified);
        ASSERT_TRUE(base.success); // unified must always compile

        const CompileResult clustered = compileClustered(loop, machine);
        ASSERT_TRUE(clustered.success); // P1

        std::string why;
        EXPECT_TRUE(verifySchedule(clustered.loop, model,
                                   clustered.schedule, &why))
            << why; // P2

        EXPECT_GE(clustered.ii, base.ii); // P3

        EXPECT_TRUE(clustered.loop.validate(machine, &why)) << why; // P4
        EXPECT_EQ(clustered.loop.numOriginalNodes, loop.numNodes());
        for (NodeId v = 0; v < loop.numNodes(); ++v) {
            EXPECT_EQ(clustered.loop.graph.node(v).op, loop.node(v).op);
            EXPECT_EQ(clustered.loop.graph.node(v).latency,
                      loop.node(v).latency);
        }
        for (NodeId v = loop.numNodes();
             v < clustered.loop.graph.numNodes(); ++v) {
            EXPECT_EQ(clustered.loop.graph.node(v).op, Opcode::Copy);
        }

        // P5: when the clustered II equals the unified II and that II
        // equals RecMII, no recurrence can have been split (each copy
        // adds a cycle to its recurrence).
        if (clustered.ii == base.ii && base.ii == recMii(loop)) {
            EXPECT_EQ(recMii(clustered.loop.graph), recMii(loop));
        }

        // P6: the pipelined execution computes exactly the sequential
        // loop's values (dynamic validation on the VLIW simulator).
        const EquivalenceReport equivalence = checkEquivalence(
            loop, clustered.loop, clustered.schedule, machine, 6);
        EXPECT_TRUE(equivalence.equivalent)
            << (equivalence.mismatches.empty()
                    ? ""
                    : equivalence.mismatches[0]);

        // P7: rotating register allocation of the schedule is sound.
        const RegisterAllocation allocation = allocateRegisters(
            clustered.loop, clustered.schedule, machine);
        EXPECT_TRUE(verifyAllocation(clustered.loop, clustered.schedule,
                                     allocation, &why))
            << why;

        // P8: stage scheduling preserves legality and the II while
        // never increasing total lifetime.
        const StageScheduleResult staged =
            stageSchedule(clustered.loop, clustered.schedule);
        EXPECT_LE(staged.lifetimeAfter, staged.lifetimeBefore);
        EXPECT_TRUE(verifySchedule(clustered.loop, model,
                                   staged.schedule, &why))
            << why;

        // P9: the copies fed by each value, directly or hop by hop,
        // deliver it to the clusters on the routes from its cluster to
        // each consumer's, and nowhere else. A bused route is just
        // {src, dst}; on the grid a route adds its relays.
        const AnnotatedLoop &annotated = clustered.loop;
        for (NodeId v = 0; v < loop.numNodes(); ++v) {
            const ClusterId src = annotated.placement[v].cluster;
            std::vector<ClusterId> expected;
            for (NodeId succ : loop.successors(v)) {
                const ClusterId dst = annotated.placement[succ].cluster;
                if (dst == src)
                    continue;
                for (ClusterId c : machine.route(src, dst)) {
                    if (c != src)
                        expected.push_back(c);
                }
            }
            std::sort(expected.begin(), expected.end());
            expected.erase(std::unique(expected.begin(), expected.end()),
                           expected.end());
            std::vector<ClusterId> delivered;
            std::vector<NodeId> frontier{v};
            while (!frontier.empty()) {
                const NodeId from = frontier.back();
                frontier.pop_back();
                for (NodeId next : annotated.graph.successors(from)) {
                    if (!annotated.isCopy(next))
                        continue;
                    const std::vector<ClusterId> &dsts =
                        annotated.placement[next].copyDsts;
                    delivered.insert(delivered.end(), dsts.begin(),
                                     dsts.end());
                    frontier.push_back(next);
                }
            }
            std::sort(delivered.begin(), delivered.end());
            EXPECT_EQ(delivered, expected) << "value " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndSeeds, PipelineSweep,
    ::testing::Combine(::testing::Values("2c-gp", "4c-gp", "2c-fs",
                                         "4c-fs", "grid", "6c-gp",
                                         "8c-gp"),
                       ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        std::string name = std::string(std::get<0>(info.param)) + "_s" +
                           std::to_string(std::get<1>(info.param));
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Determinism, RepeatedCompilesAreBitIdentical)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    for (int i = 0; i < 8; ++i) {
        const Dfg loop = generateLoop(12000 + i);
        const CompileResult first = compileClustered(loop, machine);
        const CompileResult second = compileClustered(loop, machine);
        ASSERT_EQ(first.success, second.success);
        if (!first.success)
            continue;
        EXPECT_EQ(first.ii, second.ii);
        EXPECT_EQ(first.copies, second.copies);
        EXPECT_EQ(first.schedule.startCycle, second.schedule.startCycle);
        for (NodeId v = 0; v < first.loop.graph.numNodes(); ++v) {
            EXPECT_EQ(first.loop.placement[v].cluster,
                      second.loop.placement[v].cluster);
        }
    }
}

TEST(Determinism, BugPolicyTerminatesAndVerifies)
{
    CompileOptions options;
    options.assign.policy = AssignPolicy::AcyclicBug;
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const ResourceModel model(machine);
    for (int i = 0; i < 12; ++i) {
        const Dfg loop = generateLoop(12100 + i);
        const CompileResult result =
            compileClustered(loop, machine, options);
        ASSERT_TRUE(result.success) << 12100 + i;
        std::string why;
        EXPECT_TRUE(
            verifySchedule(result.loop, model, result.schedule, &why))
            << why;
    }
}

class VariantSweep : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(VariantSweep, AllVariantsTerminateAndVerify)
{
    const auto [iterative, heuristic] = GetParam();
    CompileOptions options;
    options.assign.iterative = iterative;
    options.assign.fullHeuristic = heuristic;

    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    for (int i = 0; i < 15; ++i) {
        const Dfg loop = generateLoop(9000 + i);
        SCOPED_TRACE("loop " + std::to_string(9000 + i));
        const CompileResult result =
            compileClustered(loop, machine, options);
        ASSERT_TRUE(result.success);
        std::string why;
        EXPECT_TRUE(
            verifySchedule(result.loop, model, result.schedule, &why))
            << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "iter" : "noiter") +
               (std::get<1>(info.param) ? "_heur" : "_simple");
    });

class SchedulerSweep : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(SchedulerSweep, BothSchedulersHandleGeneratedLoops)
{
    CompileOptions options;
    options.scheduler = GetParam();
    const MachineDesc machine = busedFsMachine(2, 2, 1);
    const ResourceModel model(machine);
    for (int i = 0; i < 15; ++i) {
        const Dfg loop = generateLoop(4000 + i);
        SCOPED_TRACE("loop " + std::to_string(4000 + i));
        const CompileResult result =
            compileClustered(loop, machine, options);
        ASSERT_TRUE(result.success);
        std::string why;
        EXPECT_TRUE(
            verifySchedule(result.loop, model, result.schedule, &why))
            << why;
    }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SchedulerSweep,
                         ::testing::Values(SchedulerKind::Swing,
                                           SchedulerKind::Iterative),
                         [](const auto &info) {
                             return info.param == SchedulerKind::Swing
                                        ? "swing"
                                        : "ims";
                         });

} // namespace
} // namespace cams
