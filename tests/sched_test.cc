/**
 * @file
 * Unit tests for the schedulers (IMS, SMS), the schedule container
 * and the independent verifier.
 */

#include <gtest/gtest.h>

#include "assign/assigner.hh"
#include "graph/builder.hh"
#include "graph/recmii.hh"
#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "sched/sms.hh"
#include "sched/verifier.hh"
#include "workload/kernels.hh"

namespace cams
{
namespace
{

void
expectSchedules(const ModuloScheduler &scheduler, const Dfg &graph,
                const MachineDesc &machine, int ii)
{
    const ResourceModel model(machine);
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule schedule;
    ASSERT_TRUE(scheduler.schedule(loop, model, ii, schedule))
        << scheduler.name() << " failed at II " << ii;
    std::string why;
    EXPECT_TRUE(verifySchedule(loop, model, schedule, &why))
        << scheduler.name() << ": " << why;
    EXPECT_EQ(schedule.ii, ii);
}

TEST(Mii, ResMiiGpIsOpsOverWidth)
{
    Dfg graph = kernelHydro(); // 11 ops
    EXPECT_EQ(resMii(graph, unifiedGpMachine(8)), 2);
    EXPECT_EQ(resMii(graph, unifiedGpMachine(4)), 3);
    EXPECT_EQ(resMii(graph, unifiedGpMachine(16)), 1);
}

TEST(Mii, ResMiiFsIsPerClassMax)
{
    Dfg graph = kernelHydro(); // 4 mem, 2 int, 5 fp
    // Unified of 2-cluster FS: 2 mem, 4 int, 2 fp.
    const MachineDesc unified = unifiedFsMachine(2, 4, 2);
    EXPECT_EQ(resMii(graph, unified), 3); // ceil(5 fp / 2 fp units)
}

TEST(Mii, CopiesExcluded)
{
    Dfg graph;
    graph.addNode(Opcode::IntAlu);
    graph.addNode(Opcode::Copy);
    graph.seal();
    EXPECT_EQ(resMii(graph, unifiedGpMachine(1)), 1);
}

TEST(Mii, MaxOfRecAndRes)
{
    Dfg graph = kernelTridiag(); // RecMII 4, 7 ops
    const MiiInfo info = computeMii(graph, unifiedGpMachine(8));
    EXPECT_EQ(info.recMii, 4);
    EXPECT_EQ(info.resMii, 1);
    EXPECT_EQ(info.mii, 4);
}

TEST(Schedule, RowsStagesAndLength)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    Schedule schedule;
    schedule.ii = 2;
    schedule.startCycle = {0, 3};
    EXPECT_EQ(schedule.row(0), 0);
    EXPECT_EQ(schedule.row(1), 1);
    EXPECT_EQ(schedule.stage(1), 1);
    EXPECT_EQ(schedule.stageCount(), 2);
    EXPECT_EQ(schedule.length(graph), 4);
}

TEST(Schedule, NormalizeKeepsRows)
{
    Schedule schedule;
    schedule.ii = 3;
    schedule.startCycle = {-4, 2, 5};
    const int row0 = schedule.row(0);
    const int row2 = schedule.row(2);
    schedule.normalize();
    EXPECT_GE(*std::min_element(schedule.startCycle.begin(),
                                schedule.startCycle.end()),
              0);
    EXPECT_EQ(schedule.row(0), row0);
    EXPECT_EQ(schedule.row(2), row2);
}

TEST(Verifier, CatchesDependenceViolation)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load) // lat 2
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const ResourceModel model(unifiedGpMachine(4));
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule bad;
    bad.ii = 4;
    bad.startCycle = {0, 1}; // b starts before a's result is ready
    std::string why;
    EXPECT_FALSE(verifySchedule(loop, model, bad, &why));
    EXPECT_NE(why.find("dependence"), std::string::npos);
}

TEST(Verifier, CatchesResourceOverflow)
{
    Dfg graph;
    graph.addNode(Opcode::IntAlu);
    graph.addNode(Opcode::IntAlu);
    graph.seal();
    const ResourceModel model(unifiedGpMachine(1));
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule bad;
    bad.ii = 2;
    bad.startCycle = {0, 2}; // same row 0 on a 1-wide machine
    std::string why;
    EXPECT_FALSE(verifySchedule(loop, model, bad, &why));
    EXPECT_NE(why.find("resource"), std::string::npos);
}

TEST(Verifier, AcceptsLegalSchedule)
{
    Dfg graph = DfgBuilder("t")
                    .op("a", Opcode::Load)
                    .op("b", Opcode::Store)
                    .flow("a", "b")
                    .build();
    const ResourceModel model(unifiedGpMachine(1));
    const AnnotatedLoop loop = unifiedLoop(graph);
    Schedule good;
    good.ii = 2;
    good.startCycle = {0, 3};
    std::string why;
    EXPECT_TRUE(verifySchedule(loop, model, good, &why)) << why;
}

TEST(Ims, SchedulesKernelsAtMii)
{
    const IterativeModuloScheduler ims;
    const MachineDesc machine = unifiedGpMachine(8);
    for (const Dfg &kernel : allKernels()) {
        const MiiInfo mii = computeMii(kernel, machine);
        expectSchedules(ims, kernel, machine, mii.mii);
    }
}

TEST(Sms, SchedulesKernelsAtMii)
{
    const SwingModuloScheduler sms;
    const MachineDesc machine = unifiedGpMachine(8);
    for (const Dfg &kernel : allKernels()) {
        const MiiInfo mii = computeMii(kernel, machine);
        expectSchedules(sms, kernel, machine, mii.mii);
    }
}

TEST(Ims, FailsBelowRecMii)
{
    const IterativeModuloScheduler ims;
    const ResourceModel model(unifiedGpMachine(8));
    Dfg graph = kernelTridiag(); // RecMII 4
    Schedule schedule;
    EXPECT_FALSE(ims.schedule(unifiedLoop(graph), model, 3, schedule));
}

TEST(Sms, FailsBelowRecMii)
{
    const SwingModuloScheduler sms;
    const ResourceModel model(unifiedGpMachine(8));
    Dfg graph = kernelTridiag();
    Schedule schedule;
    EXPECT_FALSE(sms.schedule(unifiedLoop(graph), model, 3, schedule));
}

TEST(Ims, TightResourceSchedule)
{
    // 4 int ops on a 1-wide machine at II 4: a perfect packing.
    DfgBuilder b("t");
    for (int i = 0; i < 4; ++i)
        b.op("n" + std::to_string(i), Opcode::IntAlu);
    expectSchedules(IterativeModuloScheduler(), b.build(),
                    unifiedGpMachine(1), 4);
}

TEST(Sms, TightResourceSchedule)
{
    DfgBuilder b("t");
    for (int i = 0; i < 4; ++i)
        b.op("n" + std::to_string(i), Opcode::IntAlu);
    expectSchedules(SwingModuloScheduler(), b.build(),
                    unifiedGpMachine(1), 4);
}

TEST(Schedulers, ClusteredLoopWithCopies)
{
    // Assign the hydro kernel across 2 clusters, then schedule the
    // annotated loop with both schedulers and verify.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    Dfg graph = kernelHydro();
    const auto assignment = ClusterAssigner(model).run(graph, 2);
    ASSERT_TRUE(assignment.success);

    for (SchedulerKind kind :
         {SchedulerKind::Swing, SchedulerKind::Iterative}) {
        const auto scheduler = makeScheduler(kind);
        Schedule schedule;
        bool ok = false;
        for (int ii = 2; ii <= 8 && !ok; ++ii) {
            // Reassign at each II exactly like the driver does.
            const auto attempt = ClusterAssigner(model).run(graph, ii);
            if (!attempt.success)
                continue;
            ok = scheduler->schedule(attempt.loop, model, ii, schedule);
            if (ok) {
                std::string why;
                EXPECT_TRUE(verifySchedule(attempt.loop, model, schedule,
                                           &why))
                    << why;
            }
        }
        EXPECT_TRUE(ok) << "scheduler " << scheduler->name();
    }
}

TEST(Schedulers, EmptyGraph)
{
    Dfg graph;
    const ResourceModel model(unifiedGpMachine(1));
    Schedule schedule;
    EXPECT_TRUE(SwingModuloScheduler().schedule(unifiedLoop(graph), model,
                                                1, schedule));
    EXPECT_TRUE(IterativeModuloScheduler().schedule(unifiedLoop(graph),
                                                    model, 1, schedule));
}

TEST(Schedulers, DumpMentionsEveryOp)
{
    Dfg graph = kernelInnerProduct();
    const MachineDesc machine = unifiedGpMachine(8);
    const CompileResult result = compileUnified(graph, machine);
    ASSERT_TRUE(result.success);
    const std::string dump = result.schedule.dump(result.loop);
    for (const DfgNode &node : graph.nodes())
        EXPECT_NE(dump.find(node.name), std::string::npos) << node.name;
}

} // namespace
} // namespace cams
