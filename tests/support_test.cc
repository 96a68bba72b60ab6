/**
 * @file
 * Unit tests for the support substrate: RNG determinism and
 * distribution sanity, statistics accumulators, string utilities.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/fault.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/rankqueue.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/threadpool.hh"

namespace cams
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntSingleValue)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::vector<bool> seen(6, false);
    for (int i = 0; i < 500; ++i)
        seen[rng.uniformInt(0, 5)] = true;
    for (bool hit : seen)
        EXPECT_TRUE(hit);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, WeightedIndexRespectsZeroWeights)
{
    Rng rng(9);
    const std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(rng.weightedIndex(weights), 1);
}

TEST(Rng, WeightedIndexRoughProportions)
{
    Rng rng(13);
    const std::vector<double> weights = {1.0, 3.0};
    int hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        if (rng.weightedIndex(weights) == 1)
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.75, 0.03);
}

TEST(Rng, LognormalIntClamped)
{
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.lognormalInt(2.58, 0.75, 2, 161);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 161);
    }
}

TEST(Rng, LognormalIntMeanNearTarget)
{
    Rng rng(19);
    double sum = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        sum += rng.lognormalInt(2.58, 0.75, 2, 161);
    // exp(2.58 + 0.75^2/2) ~ 17.5.
    EXPECT_NEAR(sum / draws, 17.5, 1.5);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
    auto copy = values;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, values);
}

TEST(RunningStat, Empty)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.min(), 0.0);
    EXPECT_EQ(stat.max(), 0.0);
}

TEST(RunningStat, Accumulates)
{
    RunningStat stat;
    stat.add(3.0);
    stat.add(-1.0);
    stat.add(4.0);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_DOUBLE_EQ(stat.min(), -1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 4.0);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 6.0);
}

TEST(IntHistogram, CountsAndFractions)
{
    IntHistogram hist;
    hist.add(0, 3);
    hist.add(1);
    hist.add(5);
    EXPECT_EQ(hist.total(), 5u);
    EXPECT_EQ(hist.countAt(0), 3u);
    EXPECT_EQ(hist.countAt(2), 0u);
    EXPECT_EQ(hist.countAtMost(1), 4u);
    EXPECT_DOUBLE_EQ(hist.fractionAt(0), 0.6);
    EXPECT_DOUBLE_EQ(hist.fractionAtMost(1), 0.8);
    EXPECT_EQ(hist.minValue(), 0);
    EXPECT_EQ(hist.maxValue(), 5);
}

TEST(RankQueue, PopsInAscendingRank)
{
    std::vector<char> flags = {1, 0, 1}; // stale flags are overwritten
    RankQueue queue(flags, 5);
    std::vector<int> popped;
    while (!queue.empty())
        popped.push_back(queue.pop());
    EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(flags, std::vector<char>(5, 0));
}

TEST(RankQueue, ReinsertBelowTheCursor)
{
    std::vector<char> flags;
    RankQueue queue(flags, 6);
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    queue.insert(1);
    queue.insert(1); // already queued: no second copy
    queue.insert(4); // never left
    EXPECT_EQ(queue.top(), 1);
    std::vector<int> popped;
    while (!queue.empty())
        popped.push_back(queue.pop());
    EXPECT_EQ(popped, (std::vector<int>{1, 3, 4, 5}));
}

TEST(RankQueue, EraseTheTop)
{
    std::vector<char> flags;
    RankQueue queue(flags, 3);
    EXPECT_EQ(queue.top(), 0);
    queue.erase(queue.top());
    EXPECT_EQ(queue.top(), 1);
    queue.erase(1);
    queue.erase(1); // no longer queued: nothing changes
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_TRUE(queue.empty());
    queue.insert(0);
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_TRUE(queue.empty());
}

TEST(Str, SplitWhitespace)
{
    const auto tokens = splitWhitespace("  a\tbb   c \n");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0], "a");
    EXPECT_EQ(tokens[1], "bb");
    EXPECT_EQ(tokens[2], "c");
}

TEST(Str, SplitWhitespaceEmpty)
{
    EXPECT_TRUE(splitWhitespace("   ").empty());
    EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(Str, SplitCharKeepsEmptyFields)
{
    const auto fields = splitChar("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Str, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Str, ParseInt)
{
    int value = 0;
    EXPECT_TRUE(parseInt("123", value));
    EXPECT_EQ(value, 123);
    EXPECT_TRUE(parseInt("-7", value));
    EXPECT_EQ(value, -7);
    EXPECT_FALSE(parseInt("", value));
    EXPECT_FALSE(parseInt("12a", value));
    EXPECT_FALSE(parseInt("-", value));
    EXPECT_FALSE(parseInt("99999999999", value));
}

TEST(Str, FormatAndPad)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(pad("ab", 4), "  ab");
    EXPECT_EQ(pad("ab", -4), "ab  ");
    EXPECT_EQ(pad("abcdef", 4), "abcdef");
}

TEST(Str, StartsWith)
{
    EXPECT_TRUE(startsWith("lat=3", "lat="));
    EXPECT_FALSE(startsWith("la", "lat="));
}

TEST(Logging, ConcatFormatsAllArguments)
{
    EXPECT_EQ(detail::concat("x=", 3, " y=", 2.5), "x=3 y=2.5");
    EXPECT_EQ(detail::concat(), "");
}

TEST(Logging, AssertDeathOnFalse)
{
    EXPECT_DEATH({ cams_assert(1 == 2, "boom"); }, "assertion");
}

TEST(Logging, CheckPassesOnTrue)
{
    EXPECT_NO_THROW({ cams_check(1 + 1 == 2, "fine"); });
}

TEST(Logging, CheckThrowsRecoverableInternalError)
{
    // cams_check is the recoverable sibling of cams_assert: it throws
    // instead of aborting, with the condition, the message and the
    // source location in what().
    try {
        cams_check(1 == 2, "value was ", 42);
        FAIL() << "cams_check(false) did not throw";
    } catch (const InternalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
        EXPECT_NE(what.find("value was 42"), std::string::npos) << what;
        EXPECT_NE(what.find("support_test.cc"), std::string::npos)
            << what;
    }
}

TEST(Fault, NamesAreStable)
{
    EXPECT_STREQ(failureKindName(FailureKind::None), "none");
    EXPECT_STREQ(failureKindName(FailureKind::AssignLivelock),
                 "assign_livelock");
    EXPECT_STREQ(failureKindName(FailureKind::IiExhausted),
                 "ii_exhausted");
    EXPECT_STREQ(failureKindName(FailureKind::VerifierReject),
                 "verifier_reject");
    EXPECT_STREQ(failureKindName(FailureKind::Timeout), "timeout");
    EXPECT_STREQ(failureKindName(FailureKind::InternalInvariant),
                 "internal_invariant");
    EXPECT_STREQ(faultSiteName(FaultSite::AssignEvictionStorm),
                 "assign_eviction_storm");
    EXPECT_STREQ(faultSiteName(FaultSite::RouterBusExhaustion),
                 "router_bus_exhaustion");
    EXPECT_STREQ(faultSiteName(FaultSite::SchedulerSlotDeny),
                 "scheduler_slot_deny");
}

TEST(Fault, ZeroProbabilityNeverTripsOrDraws)
{
    FaultInjector injector; // default config: all sites at zero
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(injector.trip(FaultSite::AssignEvictionStorm));
        EXPECT_FALSE(injector.trip(FaultSite::RouterBusExhaustion));
    }
    EXPECT_EQ(injector.totalTrips(), 0);
    // Disabled sites draw no coins, so enabling one site later does
    // not perturb another site's stream.
    EXPECT_EQ(injector.draws(), 0);
}

TEST(Fault, CertainProbabilityAlwaysTrips)
{
    FaultInjector injector(FaultConfig::uniform(1.0));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(injector.trip(FaultSite::SchedulerSlotDeny));
    EXPECT_EQ(injector.trips(FaultSite::SchedulerSlotDeny), 50);
    EXPECT_EQ(injector.totalTrips(), 50);
    EXPECT_EQ(injector.draws(), 50);
}

TEST(Fault, SameSeedSameTripSequence)
{
    FaultInjector a(FaultConfig::uniform(0.4, 99));
    FaultInjector b(FaultConfig::uniform(0.4, 99));
    for (int i = 0; i < 200; ++i) {
        const FaultSite site = FaultSite(i % numFaultSites);
        EXPECT_EQ(a.trip(site), b.trip(site)) << i;
    }
    EXPECT_EQ(a.totalTrips(), b.totalTrips());
}

TEST(Fault, PerSiteCountersSumToTotal)
{
    FaultInjector injector(FaultConfig::uniform(0.5, 7));
    for (int i = 0; i < 300; ++i)
        injector.trip(FaultSite(i % numFaultSites));
    long sum = 0;
    for (int site = 0; site < numFaultSites; ++site)
        sum += injector.trips(FaultSite(site));
    EXPECT_EQ(sum, injector.totalTrips());
    EXPECT_GT(injector.totalTrips(), 0);
    EXPECT_LT(injector.totalTrips(), 300);
}

TEST(ThreadPool, DestructionDrainsQueuedWork)
{
    // The destructor contract is "drain, then join": tasks still
    // queued when the pool dies must run, not vanish. The first task
    // naps so destruction begins with work genuinely queued behind a
    // busy worker.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        pool.post([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            ++ran;
        });
        for (int i = 0; i < 32; ++i)
            pool.post([&] { ++ran; });
        // No wait(): the destructor alone must finish the queue.
    }
    EXPECT_EQ(ran.load(), 33);
}

TEST(ThreadPool, DestructionAfterWaitIsIdempotent)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i)
            pool.post([&] { ++ran; });
        pool.wait();
        EXPECT_EQ(ran.load(), 8);
    }
    EXPECT_EQ(ran.load(), 8);
}

} // namespace
} // namespace cams
