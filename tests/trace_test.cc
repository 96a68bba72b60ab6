/**
 * @file
 * Tests of the observability layer: the trace sink's event model and
 * Chrome-JSON serialization, zero recording when disabled, scope
 * nesting across thread-pool workers, the selection cascade's
 * decision explanations, the metrics registry, and the per-phase
 * timers of the compile pipeline (routing timed only when traced).
 */

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "assign/selector.hh"
#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/driver.hh"
#include "support/metrics.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"
#include "workload/kernels.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

/**
 * Checks brace/bracket balance outside of string literals -- a cheap
 * well-formedness proxy that catches every unescaped quote or broken
 * nesting the serializer could produce.
 */
bool
balancedJson(const std::string &text)
{
    int braces = 0;
    int brackets = 0;
    bool in_string = false;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i; // skip the escaped character
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
            ++braces;
            break;
          case '}':
            --braces;
            break;
          case '[':
            ++brackets;
            break;
          case ']':
            --brackets;
            break;
          default:
            break;
        }
        if (braces < 0 || brackets < 0)
            return false;
    }
    return braces == 0 && brackets == 0 && !in_string;
}

TEST(TraceSink, DisabledConfigRecordsNothing)
{
    TraceSink sink(TraceLevel::Off);
    TraceConfig config{&sink, ""};
    EXPECT_FALSE(config.active(TraceLevel::Phase));
    EXPECT_FALSE(config.active(TraceLevel::Decision));
    {
        TraceScope scope(config, TraceLevel::Phase, "compile", "test");
        scope.arg("key", "value");
        EXPECT_FALSE(scope.active());
    }
    EXPECT_EQ(sink.eventCount(), 0u);

    // A null sink is the common "tracing off" shape.
    TraceConfig off;
    EXPECT_FALSE(off.active(TraceLevel::Phase));
    TraceScope scope(off, TraceLevel::Phase, "compile", "test");
    EXPECT_FALSE(scope.active());
}

TEST(TraceSink, PhaseLevelFiltersDecisionEvents)
{
    TraceSink sink(TraceLevel::Phase);
    TraceConfig config{&sink, ""};
    EXPECT_TRUE(config.active(TraceLevel::Phase));
    EXPECT_FALSE(config.active(TraceLevel::Decision));
    {
        TraceScope scope(config, TraceLevel::Decision, "decide",
                         "test");
        EXPECT_FALSE(scope.active());
    }
    EXPECT_EQ(sink.eventCount(), 0u);
    {
        TraceScope scope(config, TraceLevel::Phase, "phase", "test");
        EXPECT_TRUE(scope.active());
    }
    EXPECT_EQ(sink.eventCount(), 1u);
}

TEST(TraceSink, TagPrefixesScopeNames)
{
    TraceSink sink(TraceLevel::Phase);
    TraceConfig config{&sink, "c:loop_3"};
    {
        TraceScope scope(config, TraceLevel::Phase, "assign", "phase");
    }
    const std::vector<TraceEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "c:loop_3/assign");
    EXPECT_EQ(events[0].phase, 'X');
}

TEST(TraceSink, BoundedRingOverwritesOldestAndCountsDrops)
{
    TraceSink sink(TraceLevel::Phase, 4);
    EXPECT_EQ(sink.capacity(), 4u);
    for (int i = 0; i < 10; ++i)
        sink.instant("event_" + std::to_string(i), "test");

    EXPECT_EQ(sink.eventCount(), 4u);
    EXPECT_EQ(sink.droppedCount(), 6u);

    // The survivors are the newest four, still in recording order.
    const std::vector<TraceEvent> events = sink.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].name, "event_" + std::to_string(6 + i));
    EXPECT_TRUE(balancedJson(sink.toJson()));

    // An unbounded sink (the batch-run shape) never drops.
    TraceSink unbounded(TraceLevel::Phase, 0);
    for (int i = 0; i < 10; ++i)
        unbounded.instant("event", "test");
    EXPECT_EQ(unbounded.eventCount(), 10u);
    EXPECT_EQ(unbounded.droppedCount(), 0u);
}

TEST(TraceSink, JsonIsWellFormedWithHostileStrings)
{
    TraceSink sink(TraceLevel::Decision);
    sink.instant("quote\"back\\slash", "cat",
                 {{"new\nline", "tab\there"}, {"ctrl", "\x01"}});
    TraceConfig config{&sink, ""};
    {
        TraceScope scope(config, TraceLevel::Phase, "scope", "cat");
        scope.arg("k", "v");
    }
    const std::string json = sink.toJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(TraceSink, ScopesNestAcrossThreadPoolWorkers)
{
    TraceSink sink(TraceLevel::Phase);
    {
        ThreadPool pool(4);
        for (int job = 0; job < 16; ++job) {
            pool.post([&sink, job] {
                TraceConfig config{&sink,
                                   "job" + std::to_string(job)};
                TraceScope outer(config, TraceLevel::Phase, "outer",
                                 "test");
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                {
                    TraceScope inner(config, TraceLevel::Phase,
                                     "inner", "test");
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                }
            });
        }
        pool.wait();
    }
    EXPECT_EQ(sink.eventCount(), 32u);
    EXPECT_GE(sink.laneCount(), 2);
    EXPECT_LE(sink.laneCount(), 4);

    // Within one lane, any two scopes are disjoint or nested -- the
    // defining property of a valid flame graph.
    std::map<int, std::vector<TraceEvent>> byLane;
    for (const TraceEvent &event : sink.snapshot()) {
        ASSERT_EQ(event.phase, 'X');
        EXPECT_GE(event.dur, 0);
        byLane[event.tid].push_back(event);
    }
    for (const auto &[lane, events] : byLane) {
        (void)lane;
        for (size_t a = 0; a < events.size(); ++a) {
            for (size_t b = a + 1; b < events.size(); ++b) {
                const int64_t aEnd = events[a].ts + events[a].dur;
                const int64_t bEnd = events[b].ts + events[b].dur;
                const bool disjoint = aEnd <= events[b].ts ||
                                      bEnd <= events[a].ts;
                const bool aInB = events[a].ts >= events[b].ts &&
                                  aEnd <= bEnd;
                const bool bInA = events[b].ts >= events[a].ts &&
                                  bEnd <= aEnd;
                EXPECT_TRUE(disjoint || aInB || bInA)
                    << events[a].name << " vs " << events[b].name;
            }
        }
    }
}

TEST(SelectionExplain, NamesTheEliminatingStep)
{
    // Two feasible clusters; C1 violates the PCR > MRC bound, so
    // Figure 10 step 3 must eliminate it and decide the selection.
    std::vector<ClusterChoice> choices(2);
    choices[0].cluster = 0;
    choices[0].feasible = true;
    choices[0].pcrOk = true;
    choices[0].pcrInOk = true;
    choices[1].cluster = 1;
    choices[1].feasible = true;
    choices[1].pcrOk = false;
    choices[1].pcrInOk = true;

    SelectionExplain explain;
    const ClusterId picked = selectBestCluster(
        choices, true, false, false, 0, true, true, &explain);
    EXPECT_EQ(picked, 0);
    ASSERT_EQ(explain.verdicts.size(), 2u);
    EXPECT_EQ(explain.winner, 0);
    EXPECT_TRUE(explain.verdicts[0].survived);
    EXPECT_EQ(explain.verdicts[0].eliminatedBy, nullptr);
    EXPECT_FALSE(explain.verdicts[1].survived);
    EXPECT_STREQ(explain.verdicts[1].eliminatedBy, "pcr");
    EXPECT_STREQ(explain.decidingStep, "pcr");
}

TEST(SelectionExplain, RequiredCopiesDecidesAndSoftKeepHolds)
{
    std::vector<ClusterChoice> choices(2);
    choices[0].cluster = 0;
    choices[0].feasible = true;
    choices[0].pcrOk = false; // both fail PCR: the soft Select keeps
    choices[0].pcrInOk = true;
    choices[0].requiredCopies = 0;
    choices[1].cluster = 1;
    choices[1].feasible = true;
    choices[1].pcrOk = false;
    choices[1].pcrInOk = true;
    choices[1].requiredCopies = 2;

    SelectionExplain explain;
    const ClusterId picked = selectBestCluster(
        choices, true, false, false, 0, true, true, &explain);
    EXPECT_EQ(picked, 0);
    // The vacuous PCR filter must not be blamed: the deciding step is
    // the copy minimization, and that is what eliminated C1.
    EXPECT_STREQ(explain.verdicts[1].eliminatedBy, "required_copies");
    EXPECT_STREQ(explain.decidingStep, "required_copies");
}

TEST(SelectionExplain, InfeasibleClustersAreMarked)
{
    std::vector<ClusterChoice> choices(2);
    choices[0].cluster = 0;
    choices[0].feasible = false;
    choices[1].cluster = 1;
    choices[1].feasible = true;
    choices[1].pcrOk = true;
    choices[1].pcrInOk = true;

    SelectionExplain explain;
    const ClusterId picked = selectBestCluster(
        choices, true, false, false, 0, true, true, &explain);
    EXPECT_EQ(picked, 1);
    EXPECT_STREQ(explain.verdicts[0].eliminatedBy, "feasible");
    EXPECT_TRUE(explain.verdicts[1].survived);
}

TEST(DecisionTrace, CompileEmitsCascadeVerdicts)
{
    TraceSink sink(TraceLevel::Decision);
    CompileOptions options;
    options.trace.sink = &sink;
    options.trace.tag = "inner_product";
    const CompileResult result = compileClustered(
        kernelInnerProduct(), busedGpMachine(2, 2, 1), options);
    ASSERT_TRUE(result.success);

    bool saw_decide = false;
    bool saw_sched = false;
    bool saw_phase_scope = false;
    for (const TraceEvent &event : sink.snapshot()) {
        if (event.name == "assign_decide") {
            saw_decide = true;
            std::string verdicts;
            std::string node;
            for (const auto &[key, value] : event.args) {
                if (key == "verdicts")
                    verdicts = value;
                if (key == "node")
                    node = value;
            }
            // Per-cluster verdicts on a 2-cluster machine name both
            // clusters, win or loss.
            EXPECT_NE(verdicts.find("C0:"), std::string::npos);
            EXPECT_NE(verdicts.find("C1:"), std::string::npos);
            EXPECT_FALSE(node.empty());
        }
        if (event.name == "sched_attempt")
            saw_sched = true;
        if (event.phase == 'X' &&
            event.name == "inner_product/assign")
            saw_phase_scope = true;
    }
    EXPECT_TRUE(saw_decide);
    EXPECT_TRUE(saw_sched);
    EXPECT_TRUE(saw_phase_scope);
}

TEST(PhaseTimes, RecordedWithTracingOff)
{
    const CompileResult result = compileClustered(
        kernelInnerProduct(), busedGpMachine(2, 2, 1));
    ASSERT_TRUE(result.success);
    EXPECT_GT(result.phaseMs.totalMs, 0.0);
    EXPECT_GE(result.phaseMs.assignMs, 0.0);
    EXPECT_LE(result.phaseMs.assignMs, result.phaseMs.totalMs);
    // Routing is timed per placement only under phase tracing, so an
    // untraced compile reports none. Ordering and routing are
    // disjoint sub-slices of the assigner's wall, read off the same
    // microsecond clock; the nanosecond slack absorbs only the
    // floating-point sums.
    EXPECT_EQ(result.phaseMs.routeMs, 0.0);
    EXPECT_LE(result.phaseMs.orderMs + result.phaseMs.routeMs,
              result.phaseMs.assignMs + 1e-6);

    TraceSink sink(TraceLevel::Phase);
    CompileOptions traced;
    traced.trace.sink = &sink;
    double route_ms = 0.0;
    for (const Dfg &loop : buildSuite(50, defaultSuiteSeed)) {
        SCOPED_TRACE(loop.name());
        const CompileResult r =
            compileClustered(loop, gridMachine(2), traced);
        ASSERT_TRUE(r.success);
        EXPECT_LE(r.phaseMs.orderMs + r.phaseMs.routeMs,
                  r.phaseMs.assignMs + 1e-6);
        route_ms += r.phaseMs.routeMs;
    }
    EXPECT_GT(route_ms, 0.0);
}

TEST(Metrics, CountersAndHistograms)
{
    MetricsRegistry registry;
    EXPECT_TRUE(registry.empty());
    registry.add("trips");
    registry.add("trips", 4);
    EXPECT_EQ(registry.counter("trips"), 5);
    EXPECT_EQ(registry.counter("never"), 0);

    for (int value = 1; value <= 10; ++value)
        registry.record("slack", value);
    const HistogramSummary summary = registry.histogram("slack");
    EXPECT_EQ(summary.count, 10u);
    EXPECT_DOUBLE_EQ(summary.min, 1.0);
    EXPECT_DOUBLE_EQ(summary.max, 10.0);
    EXPECT_DOUBLE_EQ(summary.mean, 5.5);
    EXPECT_GE(summary.p50, 5.0);
    EXPECT_LE(summary.p50, 6.0);
    EXPECT_GE(summary.p90, 9.0);
    EXPECT_LE(summary.p90, 10.0);

    const std::string json = registry.toJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"trips\":5"), std::string::npos);
    EXPECT_NE(json.find("\"slack\""), std::string::npos);
}

TEST(Metrics, BatchStatsEmbedIiSlack)
{
    const std::vector<Dfg> suite = buildSuite(6, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    MetricsRegistry aggregate;
    const BatchOutcome outcome = BatchRunner::run(
        clusteredJobs(suite, machine), 2, 0.0, &aggregate);
    const std::string json = outcome.stats.toJson();
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(json.find("\"ii_slack\""), std::string::npos);
    EXPECT_NE(json.find("\"job_ms\""), std::string::npos);
    // The caller's registry received the same records.
    EXPECT_EQ(aggregate.histogram("job_ms").count,
              static_cast<uint64_t>(outcome.stats.jobs));
}

TEST(Metrics, BatchTracesCarryPerWorkerLanes)
{
    TraceSink sink(TraceLevel::Phase);
    const std::vector<Dfg> suite = buildSuite(8, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    options.trace.sink = &sink;
    BatchRunner::run(clusteredJobs(suite, machine, options), 3);
    EXPECT_GT(sink.eventCount(), 0u);
    // Fast jobs can all drain on one worker; at least that worker's
    // lane must exist. Multi-lane layout is asserted by the
    // ThreadPool nesting test above, which forces overlap.
    EXPECT_GE(sink.laneCount(), 1);

    // Jobs are tagged with their loop names, so interleaved lanes
    // stay attributable.
    bool saw_tagged_job = false;
    for (const TraceEvent &event : sink.snapshot()) {
        if (event.name.rfind("c:", 0) == 0 &&
            event.name.find("/batch_job") != std::string::npos) {
            saw_tagged_job = true;
        }
    }
    EXPECT_TRUE(saw_tagged_job);
}

} // namespace
} // namespace cams
