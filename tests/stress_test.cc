/**
 * @file
 * Robustness tests of the hardened pipeline: fault injection drives
 * the driver into its degradation ladder, timeouts and disabled
 * fallbacks produce classified failures, and a deterministic mini
 * fuzz sweep checks the global contract -- every compile ends in a
 * verified schedule or a classified failure, never a crash.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/driver.hh"
#include "sched/verifier.hh"
#include "support/fault.hh"
#include "workload/generator.hh"

namespace cams
{
namespace
{

/** Injector whose only non-zero site is scheduler-slot denial. */
std::shared_ptr<FaultInjector>
denyAllSlots()
{
    FaultConfig config;
    config.probability[int(FaultSite::SchedulerSlotDeny)] = 1.0;
    return std::make_shared<FaultInjector>(config);
}

Dfg
loopOfSize(int min_nodes, int max_nodes, uint64_t seed)
{
    GeneratorParams params;
    params.minNodes = min_nodes;
    params.maxNodes = max_nodes;
    return generateLoop(seed, params, "stress");
}

TEST(Stress, SchedulerDenialDegradesToSingleCluster)
{
    // Denying every slot starves the whole primary II search; the
    // loop is too big for the exhaustive rung, so the single-cluster
    // serializer must rescue the compile with a verified schedule.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg loop = loopOfSize(12, 24, 11);
    ASSERT_GT(loop.numNodes(), 8);

    CompileOptions options;
    options.faults = denyAllSlots();
    const CompileResult result =
        compileClustered(loop, machine, options);

    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.degraded, DegradeLevel::SingleCluster);
    EXPECT_EQ(result.failure, FailureKind::None);
    EXPECT_GT(result.faultTrips, 0);

    std::string why;
    EXPECT_TRUE(verifySchedule(result.loop, ResourceModel(machine),
                               result.schedule, &why))
        << why;
    // Serialized on cluster 0: no inter-cluster copies remain.
    EXPECT_EQ(result.copies, 0);
}

TEST(Stress, SmallLoopFallsBackToExhaustiveAssign)
{
    // Same denial, but a loop small enough for rung 1: exhaustive
    // partition enumeration (which runs injection-free) must rescue
    // it before the single-cluster serializer is reached.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg loop = loopOfSize(3, 6, 5);
    ASSERT_LE(loop.numNodes(), 8);

    CompileOptions options;
    options.faults = denyAllSlots();
    const CompileResult result =
        compileClustered(loop, machine, options);

    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.degraded, DegradeLevel::ExhaustiveAssign);
    EXPECT_EQ(result.failure, FailureKind::None);
    EXPECT_GT(result.faultTrips, 0);

    std::string why;
    EXPECT_TRUE(verifySchedule(result.loop, ResourceModel(machine),
                               result.schedule, &why))
        << why;
}

TEST(Stress, AssignmentFaultsStayClassified)
{
    // Eviction storms and bus exhaustion at coin-flip rates, on a
    // machine with a starved interconnect: whatever happens, each
    // outcome is a verified schedule or a classified failure.
    const MachineDesc machine = busedGpMachine(2, 1, 1);
    const ResourceModel model(machine);
    FaultConfig config;
    config.probability[int(FaultSite::AssignEvictionStorm)] = 0.5;
    config.probability[int(FaultSite::RouterBusExhaustion)] = 0.5;

    for (uint64_t seed = 1; seed <= 20; ++seed) {
        config.seed = seed;
        CompileOptions options;
        options.faults = std::make_shared<FaultInjector>(config);
        const Dfg loop = loopOfSize(2, 32, seed);
        const CompileResult result =
            compileClustered(loop, machine, options);
        if (result.success) {
            std::string why;
            EXPECT_TRUE(verifySchedule(result.loop, model,
                                       result.schedule, &why))
                << "seed " << seed << ": " << why;
            EXPECT_EQ(result.failure, FailureKind::None);
        } else {
            EXPECT_NE(result.failure, FailureKind::None)
                << "seed " << seed;
            EXPECT_FALSE(result.failureDetail.empty());
        }
    }
}

TEST(Stress, ExpiredBudgetClassifiesAsTimeout)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg loop = loopOfSize(8, 16, 3);

    CompileOptions options;
    options.timeBudgetMs = 1e-6; // expired before the first attempt
    options.fallback = false;
    const CompileResult bare =
        compileClustered(loop, machine, options);
    EXPECT_FALSE(bare.success);
    EXPECT_EQ(bare.failure, FailureKind::Timeout);
    EXPECT_EQ(bare.attempts, 0);

    // The single-cluster rung runs even after a timeout: recovering
    // the compile beats reporting it.
    options.fallback = true;
    const CompileResult rescued =
        compileClustered(loop, machine, options);
    ASSERT_TRUE(rescued.success);
    EXPECT_EQ(rescued.degraded, DegradeLevel::SingleCluster);
}

TEST(Stress, FallbackDisabledKeepsTheClassifiedFailure)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg loop = loopOfSize(12, 24, 11);

    CompileOptions options;
    options.faults = denyAllSlots();
    options.fallback = false;
    const CompileResult result =
        compileClustered(loop, machine, options);

    EXPECT_FALSE(result.success);
    EXPECT_NE(result.failure, FailureKind::None);
    const int limit = result.mii.mii * 4 + options.iiSlack;
    EXPECT_EQ(result.finalIiTried, limit);
    EXPECT_GT(result.faultTrips, 0);
}

TEST(Stress, IncompatibleMachineIsClassifiedNotFatal)
{
    // Two memory-only clusters cannot execute an FP add. The direct
    // assigner cams_fatals on this (a caller bug there); the driver
    // classifies it so a batch over arbitrary inputs never dies.
    MachineDesc machine;
    machine.name = "mem-only";
    machine.interconnect = InterconnectKind::Bus;
    machine.numBuses = 1;
    ClusterDesc mem;
    mem.fsUnits[static_cast<int>(FuClass::Memory)] = 1;
    machine.clusters = {mem, mem};
    machine.validate();

    const Dfg loop = DfgBuilder("fp-loop")
                         .op("ld", Opcode::Load)
                         .op("acc", Opcode::FpAdd)
                         .flow("ld", "acc")
                         .carried("acc", "ld", 1)
                         .build();

    const CompileResult result = compileClustered(loop, machine);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.failure, FailureKind::InternalInvariant);
    EXPECT_NE(result.failureDetail.find("cannot execute"),
              std::string::npos)
        << result.failureDetail;
}

TEST(Stress, HostileLoopsAreClassifiedNotFatal)
{
    // Zero-distance cycles used to cams_fatal inside RecMII, and huge
    // latencies overflowed the II arithmetic. Both entry points must
    // refuse them as malformed graphs.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const MachineDesc unified = machine.unifiedEquivalent();
    auto expectRejected = [&](const Dfg &loop) {
        for (bool clustered : {true, false}) {
            SCOPED_TRACE(clustered ? "clustered" : "unified");
            const CompileResult result =
                clustered ? compileClustered(loop, machine)
                          : compileUnified(loop, unified);
            EXPECT_FALSE(result.success);
            EXPECT_EQ(result.failure, FailureKind::InternalInvariant);
            EXPECT_NE(result.failureDetail.find("malformed input graph"),
                      std::string::npos)
                << result.failureDetail;
        }
    };
    auto loopWith = [](int latency, int distance, bool selfEdge) {
        Dfg loop;
        loop.addNode(Opcode::IntAlu, -1, "a");
        loop.addNode(Opcode::IntAlu, -1, "b");
        loop.addEdge(0, 1);
        if (selfEdge)
            loop.addEdge(1, 1, latency, distance);
        else
            loop.addEdge(1, 0, latency, distance);
        loop.seal();
        return loop;
    };

    {
        SCOPED_TRACE("2-node cycle, distance 0");
        expectRejected(loopWith(1, 0, false));
    }
    {
        SCOPED_TRACE("self-edge, distance 0");
        expectRejected(loopWith(1, 0, true));
    }
    {
        SCOPED_TRACE("zero-latency zero-distance cycle");
        expectRejected(loopWith(0, 0, false));
    }
    for (int latency : {maxLoopLatency + 1, 1000000000, INT32_MAX}) {
        SCOPED_TRACE(latency);
        expectRejected(loopWith(latency, 1, false));
    }
    {
        SCOPED_TRACE("distance beyond the bound");
        expectRejected(loopWith(1, maxLoopDistance + 1, false));
    }
    Dfg slowNode = loopWith(1, 1, false);
    slowNode.node(0).latency = maxLoopLatency + 1;
    {
        SCOPED_TRACE("node latency beyond the bound");
        expectRejected(slowNode);
    }

    // At the bounds the same shapes still compile.
    for (bool selfEdge : {false, true}) {
        const Dfg ok = loopWith(maxLoopLatency, maxLoopDistance, selfEdge);
        EXPECT_TRUE(compileClustered(ok, machine).success);
        EXPECT_TRUE(compileUnified(ok, unified).success);
    }
}

TEST(Stress, FaultInjectionIsDeterministic)
{
    // Same seeds in, bit-identical outcomes out: a failing fuzz job
    // must reproduce exactly.
    const MachineDesc machine = busedGpMachine(2, 1, 1);
    auto sweep = [&]() {
        std::vector<CompileResult> results;
        for (uint64_t seed = 1; seed <= 12; ++seed) {
            CompileOptions options;
            options.faults = std::make_shared<FaultInjector>(
                FaultConfig::uniform(0.3, seed));
            results.push_back(compileClustered(
                loopOfSize(2, 24, seed * 97), machine, options));
        }
        return results;
    };
    const std::vector<CompileResult> first = sweep();
    const std::vector<CompileResult> second = sweep();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].success, second[i].success) << i;
        EXPECT_EQ(first[i].ii, second[i].ii) << i;
        EXPECT_EQ(first[i].failure, second[i].failure) << i;
        EXPECT_EQ(first[i].degraded, second[i].degraded) << i;
        EXPECT_EQ(first[i].faultTrips, second[i].faultTrips) << i;
        EXPECT_EQ(first[i].attempts, second[i].attempts) << i;
    }
}

TEST(Stress, BatchAggregatesFailureTaxonomy)
{
    // Mixed batch: healthy jobs, a guaranteed degradation, and a
    // guaranteed classified failure. The stats must add up.
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg healthy = loopOfSize(4, 10, 21);
    const Dfg big = loopOfSize(12, 24, 11);

    std::vector<CompileJob> jobs(3);
    jobs[0].loop = &healthy;
    jobs[0].machine = &machine;
    jobs[0].clustered = true;

    jobs[1].loop = &big; // denial + ladder -> degraded success
    jobs[1].machine = &machine;
    jobs[1].clustered = true;
    jobs[1].options.faults = denyAllSlots();

    jobs[2].loop = &big; // denial, no ladder -> classified failure
    jobs[2].machine = &machine;
    jobs[2].clustered = true;
    jobs[2].options.faults = denyAllSlots();
    jobs[2].options.fallback = false;

    const BatchOutcome outcome = BatchRunner::run(jobs, 2);
    const BatchStats &stats = outcome.stats;
    EXPECT_EQ(stats.jobs, 3);
    EXPECT_EQ(stats.succeeded, 2);
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(stats.degraded, 1);
    EXPECT_EQ(stats.capturedExceptions, 0);
    EXPECT_GT(stats.faultTrips, 0);

    long classified = 0;
    for (int kind = 0; kind < numFailureKinds; ++kind)
        classified += stats.failuresByKind[kind];
    EXPECT_EQ(classified, stats.failed);
    EXPECT_EQ(stats.failuresByKind[int(FailureKind::None)], 0);

    // The JSON report carries the taxonomy for BENCH_stress.json.
    const std::string json = stats.toJson();
    EXPECT_NE(json.find("\"failure_kinds\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\":1"), std::string::npos);
}

TEST(Stress, BatchDeadlineAppliesToJobsWithoutTheirOwn)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const Dfg loop = loopOfSize(8, 16, 3);

    std::vector<CompileJob> jobs(2);
    jobs[0].loop = &loop; // inherits the batch deadline
    jobs[0].machine = &machine;
    jobs[0].clustered = true;
    jobs[0].options.fallback = false;

    jobs[1].loop = &loop; // its own generous budget wins
    jobs[1].machine = &machine;
    jobs[1].clustered = true;
    jobs[1].options.timeBudgetMs = 60000.0;

    const BatchOutcome outcome = BatchRunner::run(jobs, 1, 1e-6);
    EXPECT_FALSE(outcome.results[0].success);
    EXPECT_EQ(outcome.results[0].failure, FailureKind::Timeout);
    EXPECT_TRUE(outcome.results[1].success);
    EXPECT_EQ(outcome.results[1].degraded, DegradeLevel::None);
}

} // namespace
} // namespace cams
