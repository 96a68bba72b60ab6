/**
 * @file
 * Tests of the thread pool and the parallel batch-compilation engine:
 * bit-identical results across thread counts, clean error surfacing
 * from throwing jobs, and stats aggregation matching the serial sum
 * under one name per counter in the stats, their JSON and the metrics
 * registry.
 */

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "support/threadpool.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

/** Asserts two compile results are indistinguishable, field by field
 *  down to every start cycle and placement. */
void
expectSameResult(const CompileResult &a, const CompileResult &b)
{
    ASSERT_EQ(a.success, b.success);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.mii.mii, b.mii.mii);
    EXPECT_EQ(a.copies, b.copies);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.assignRetries, b.assignRetries);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.degraded, b.degraded);
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

TEST(ThreadPool, RunsEveryPostedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.post([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThrowingTaskSurfacesWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    for (int i = 0; i < 10; ++i)
        pool.post([&completed] { ++completed; });
    pool.post([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i)
        pool.post([&completed] { ++completed; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The queue drained despite the throwing task, and the pool is
    // still usable afterwards.
    EXPECT_EQ(completed.load(), 20);
    pool.post([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 21);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvironment)
{
    setenv("CAMS_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    unsetenv("CAMS_JOBS");
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(Batch, ResultsIdenticalAcrossThreadCounts)
{
    const std::vector<Dfg> suite = buildSuite(24);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::vector<CompileJob> jobs = clusteredJobs(suite, machine);

    const BatchOutcome one = BatchRunner::run(jobs, 1);
    const BatchOutcome two = BatchRunner::run(jobs, 2);
    const BatchOutcome eight = BatchRunner::run(jobs, 8);

    ASSERT_EQ(one.results.size(), suite.size());
    ASSERT_EQ(two.results.size(), suite.size());
    ASSERT_EQ(eight.results.size(), suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        expectSameResult(one.results[i], two.results[i]);
        expectSameResult(one.results[i], eight.results[i]);
    }
}

TEST(Batch, ResultsComeBackInInputOrder)
{
    const std::vector<Dfg> suite = buildSuite(16);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const BatchOutcome batch =
        BatchRunner::run(clusteredJobs(suite, machine), 8);
    for (size_t i = 0; i < suite.size(); ++i) {
        if (!batch.results[i].success)
            continue;
        // The annotated loop keeps the input graph's name, which ties
        // each slot back to the job that produced it.
        EXPECT_EQ(batch.results[i].loop.graph.name(), suite[i].name());
    }
}

TEST(Batch, MatchesDirectSerialCompilation)
{
    const std::vector<Dfg> suite = buildSuite(12);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const BatchOutcome batch =
        BatchRunner::run(clusteredJobs(suite, machine), 8);
    for (size_t i = 0; i < suite.size(); ++i) {
        const CompileResult serial = compileClustered(suite[i], machine);
        expectSameResult(serial, batch.results[i]);
    }
}

TEST(Batch, StatsTotalsMatchSerialSum)
{
    const std::vector<Dfg> suite = buildSuite(24);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const BatchOutcome batch =
        BatchRunner::run(clusteredJobs(suite, machine), 8);

    long attempts = 0;
    long retries = 0;
    long evictions = 0;
    long copies = 0;
    int succeeded = 0;
    for (const Dfg &loop : suite) {
        const CompileResult serial = compileClustered(loop, machine);
        attempts += serial.attempts;
        retries += serial.assignRetries;
        evictions += serial.evictions;
        copies += serial.copies;
        if (serial.success)
            ++succeeded;
    }

    EXPECT_EQ(batch.stats.jobs, static_cast<int>(suite.size()));
    EXPECT_EQ(batch.stats.succeeded, succeeded);
    EXPECT_EQ(batch.stats.failed,
              static_cast<int>(suite.size()) - succeeded);
    EXPECT_EQ(batch.stats.iiAttempts, attempts);
    EXPECT_EQ(batch.stats.assignRetries, retries);
    EXPECT_EQ(batch.stats.evictions, evictions);
    EXPECT_EQ(batch.stats.copies, copies);
    EXPECT_EQ(batch.stats.threads, 8);
    ASSERT_EQ(batch.jobMillis.size(), suite.size());
    EXPECT_GT(batch.stats.wallMillis, 0.0);
}

TEST(Batch, MalformedJobThrowsWithoutDeadlock)
{
    const std::vector<Dfg> suite = buildSuite(4);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    std::vector<CompileJob> jobs = clusteredJobs(suite, machine);
    jobs[2].loop = nullptr; // poisoned job
    EXPECT_THROW(BatchRunner::run(jobs, 2), std::invalid_argument);
}

TEST(Batch, UnifiedJobsProduceBaselineResults)
{
    const std::vector<Dfg> suite = buildSuite(8);
    const MachineDesc unified = unifiedGpMachine(8);
    const BatchOutcome batch =
        BatchRunner::run(unifiedJobs(suite, unified), 4);
    for (size_t i = 0; i < suite.size(); ++i) {
        const CompileResult serial = compileUnified(suite[i], unified);
        expectSameResult(serial, batch.results[i]);
        EXPECT_EQ(batch.results[i].copies, 0);
    }
}

TEST(Batch, StatsRenderAsJson)
{
    BatchStats stats;
    stats.jobs = 2;
    stats.succeeded = 1;
    stats.failed = 1;
    stats.threads = 4;
    stats.iiAttempts = 7;
    const std::string json = stats.toJson();
    EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
    EXPECT_NE(json.find("\"succeeded\":1"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
    EXPECT_NE(json.find("\"ii_attempts\":7"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

// Every CAMS_BATCH_COUNTERS row is one name: the field sums its value
// over the results, toJson() prints it once under the name, and the
// registry the run publishes into reads it under the same name. The
// embedded metrics snapshot repeats no counter. The batch makes the
// cache, fault and exact rows non-zero: cache hits and misses, a
// fault-injected job, race jobs that tighten, certify and starve, and
// an exact job on a machine it cannot encode.
TEST(Batch, EveryCounterHasOneName)
{
    const std::string dir = ::testing::TempDir() + "batch_counter_names";
    std::filesystem::remove_all(dir);
    CompileCache cache(dir, CacheMode::ReadWrite);
    const std::vector<Dfg> suite = buildSuite(50);
    const std::vector<Dfg> warm(suite.begin(), suite.begin() + 25);
    const MachineDesc machine = busedFsMachine(4, 2, 2);
    const MachineDesc grid = gridMachine(2);

    CompileOptions cached;
    cached.cache = &cache;
    BatchRunner::run(clusteredJobs(warm, machine, cached), 2);
    // The first 25 loops hit the cache, the other 25 miss it.
    std::vector<CompileJob> jobs = clusteredJobs(suite, machine, cached);

    CompileOptions faulty;
    faulty.faults =
        std::make_shared<FaultInjector>(FaultConfig::uniform(0.05, 11));
    jobs.push_back({&suite[0], &machine, faulty, true});

    CompileOptions race;
    race.backend = CompileBackend::Race;
    CompileOptions starved = race;
    starved.exact.conflictBudget = 1;
    for (const Dfg &loop : suite) {
        jobs.push_back({&loop, &machine, race, true});
        jobs.push_back({&loop, &machine, starved, true});
    }
    CompileOptions exact;
    exact.backend = CompileBackend::Exact;
    jobs.push_back({&suite[0], &grid, exact, true});

    MetricsRegistry registry;
    const BatchOutcome batch = BatchRunner::run(jobs, 4, 0.0, &registry);
    const BatchStats &stats = batch.stats;
    const std::string json = stats.toJson();
    auto occurrences = [&](const std::string &name) {
        const std::string key = "\"" + name + "\":";
        int count = 0;
        for (size_t at = json.find(key); at != std::string::npos;
             at = json.find(key, at + 1))
            ++count;
        return count;
    };
    int rows = 0;
#define CAMS_CHECK_COUNTER(field, name, value)                             \
    {                                                                      \
        long sum = 0;                                                      \
        for (const CompileResult &r : batch.results)                       \
            sum += (value);                                                \
        EXPECT_EQ(stats.field, sum) << name;                               \
        EXPECT_NE(json.find(std::string("\"") + name +                    \
                            "\":" + std::to_string(sum) + ","),           \
                  std::string::npos)                                       \
            << name;                                                       \
        EXPECT_EQ(occurrences(name), 1) << name;                           \
        EXPECT_EQ(registry.counter(name), sum) << name;                    \
        ++rows;                                                            \
    }
    CAMS_BATCH_COUNTERS(CAMS_CHECK_COUNTER)
#undef CAMS_CHECK_COUNTER
    EXPECT_EQ(rows, 22);
    // The job tallies reach the caller's registry, not the snapshot.
    EXPECT_EQ(registry.counter("jobs_succeeded"), stats.succeeded);
    EXPECT_EQ(registry.counter("jobs_failed"), stats.failed);
    EXPECT_EQ(registry.counter("jobs_degraded"), stats.degraded);
    for (const char *name : {"jobs_succeeded", "jobs_failed", "jobs_degraded"})
        EXPECT_EQ(occurrences(name), 0) << name;
    EXPECT_EQ(occurrences("job_ms"), 1);

    EXPECT_EQ(stats.cacheHits, 25);
    EXPECT_EQ(stats.cacheMisses, 25);
    EXPECT_GT(stats.faultTrips, 0);
    EXPECT_GT(stats.invariantRecoveries, 0);
    EXPECT_GT(stats.exactSat, 0);
    EXPECT_GT(stats.exactUnsat, 0);
    EXPECT_GT(stats.exactTimeout, 0);
    EXPECT_EQ(stats.exactUnsupported, 1);
    EXPECT_GT(stats.exactTightened, 0);
    EXPECT_GT(stats.exactProved, 0);
    EXPECT_GT(stats.exactVacuous, 0);
    EXPECT_GT(stats.exactProbes, 0);
    EXPECT_GT(stats.exactConflicts, 0);
    EXPECT_GT(stats.exactPropagations, stats.exactConflicts);
    std::filesystem::remove_all(dir);
}

// A race certificate is proved when the exact arm ran at least one
// probe, and vacuous when the heuristic already sat at MII.
TEST(Batch, RaceCertificatesSplitProvedFromVacuous)
{
    const std::vector<Dfg> suite = buildSuite(60);
    CompileOptions race;
    race.backend = CompileBackend::Race;
    const BatchOutcome batch = BatchRunner::run(
        clusteredJobs(suite, busedFsMachine(4, 2, 2), race), 4);
    long certified = 0;
    long probed = 0;
    for (const CompileResult &result : batch.results) {
        if (result.exact.certified) {
            ++certified;
            probed += result.exact.probes > 0;
        }
    }
    EXPECT_GT(batch.stats.exactProved, 0);
    EXPECT_GT(batch.stats.exactVacuous, 0);
    EXPECT_EQ(batch.stats.exactProved + batch.stats.exactVacuous, certified);
    EXPECT_EQ(batch.stats.exactProved, probed);
}

} // namespace
} // namespace cams
