/**
 * @file
 * The behaviour contract: digests per (machine, scheduler) over the
 * compiles of all 1327 published-suite loops (the first 400 and the
 * rest in two rows), plus the paths the published suite never takes
 * on the heuristic backend: the race arm, the exact backend, the
 * degradation ladder, time budgets, an empty II window and
 * fallback-off compiles.
 *
 * A schedule digest is a portable 64-bit FNV-1a hash of what a compile
 * decides -- success, degradation rung, II, every placement's cluster
 * and copy destinations, every annotated edge and every start cycle --
 * and of nothing measured (no times, no cache counters). Each config
 * has four: the clustered schedules, the schedules of the same loops
 * on the config's unifiedEquivalent() machine, and the clustered and
 * unified search trajectories (attempts, assignment retries,
 * evictions, failure kind and text, last II tried, verifier rejects,
 * rung). The race, exact and ladder rows hash three digests each: a
 * verdict digest of the schedule, the trajectory, the exact arm's
 * verdicts (ExactStats outcome, tightened, certified, exact and
 * heuristic II, probes, detail), fault trips and recovered invariants;
 * a model digest of the schedules the exact arm decoded; and a work
 * digest of the solver's conflicts, decisions and propagations. A
 * result the exact arm decoded (outcome Sat) adds only its success,
 * rung and II to the verdict digest: its placements, edges and start
 * cycles are whichever model the solver met first, so they go to the
 * model digest. A cheaper encoding of the same instances keeps every
 * verdict digest and moves only model and work digests. A refactor
 * that keeps every compile byte-identical keeps every digest; one that
 * moves a single copy or start cycle, or takes one more eviction to
 * reach the same schedule, changes one. On a mismatch the test prints
 * the computed digests so an intended behaviour change can update the
 * table in one edit.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

/** 64-bit FNV-1a over integers fed byte by byte, low byte first. */
class Fnv1a
{
  public:
    void
    add(int64_t value)
    {
        auto bits = static_cast<uint64_t>(value);
        for (int i = 0; i < 8; ++i) {
            hash_ ^= bits & 0xff;
            hash_ *= 0x100000001b3ULL;
            bits >>= 8;
        }
    }

    void
    add(const std::string &text)
    {
        add(static_cast<int64_t>(text.size()));
        for (unsigned char c : text)
            add(c);
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Whether the compile succeeded, on which rung and at which II. */
void
digestOutcome(Fnv1a &h, const CompileResult &result)
{
    h.add(result.success ? 1 : 0);
    h.add(static_cast<int64_t>(result.degraded));
    h.add(result.ii);
}

/** The schedule itself: placements, annotated edges, start cycles. */
void
digestModel(Fnv1a &h, const CompileResult &result)
{
    if (!result.success)
        return;
    h.add(static_cast<int64_t>(result.loop.placement.size()));
    for (const OpPlacement &place : result.loop.placement) {
        h.add(place.cluster);
        h.add(static_cast<int64_t>(place.copyDsts.size()));
        for (ClusterId dst : place.copyDsts)
            h.add(dst);
    }
    h.add(result.loop.graph.numEdges());
    for (const DfgEdge &edge : result.loop.graph.edges()) {
        h.add(edge.src);
        h.add(edge.dst);
        h.add(edge.latency);
        h.add(edge.distance);
    }
    h.add(static_cast<int64_t>(result.schedule.startCycle.size()));
    for (int cycle : result.schedule.startCycle)
        h.add(cycle);
}

void
digestResult(Fnv1a &h, const CompileResult &result)
{
    digestOutcome(h, result);
    digestModel(h, result);
}

/** The search that reached the result, beyond what the schedule shows. */
void
digestTrajectory(Fnv1a &h, const CompileResult &result)
{
    h.add(result.attempts);
    h.add(result.assignRetries);
    h.add(result.evictions);
    h.add(static_cast<int64_t>(result.failure));
    h.add(result.failureDetail);
    h.add(result.finalIiTried);
    h.add(result.verifierRejects);
    h.add(static_cast<int64_t>(result.degraded));
}

/** The exact arm's verdicts, as camsbench's fingerprint prints them. */
void
digestExactVerdict(Fnv1a &h, const CompileResult &result)
{
    const ExactStats &e = result.exact;
    h.add(static_cast<int64_t>(e.outcome));
    h.add(e.tightened ? 1 : 0);
    h.add(e.certified ? 1 : 0);
    h.add(e.exactIi);
    h.add(e.heuristicIi);
    h.add(e.probes);
    h.add(e.detail);
}

/** Everything deterministic a compile decides: schedule (of an
 *  exact-decoded result, only its outcome), search, exact verdicts,
 *  fault trips and recovered invariants. */
void
digestVerdict(Fnv1a &h, const CompileResult &result)
{
    if (result.exact.outcome == ExactOutcome::Sat)
        digestOutcome(h, result);
    else
        digestResult(h, result);
    digestTrajectory(h, result);
    digestExactVerdict(h, result);
    h.add(result.faultTrips);
    h.add(result.invariantRecoveries);
}

/** The solver work behind the exact verdicts: deterministic under
 *  conflict budgets, but free to fall when an encoding gets cheaper. */
void
digestWork(Fnv1a &h, const CompileResult &result)
{
    h.add(result.exact.conflicts);
    h.add(result.exact.decisions);
    h.add(result.exact.propagations);
}

/** Verdict, model and work digests over the same compiles. */
struct Digests
{
    Fnv1a verdict;
    Fnv1a model;
    Fnv1a work;

    void
    add(const CompileResult &result)
    {
        digestVerdict(verdict, result);
        if (result.exact.outcome == ExactOutcome::Sat)
            digestModel(model, result);
        digestWork(work, result);
    }
};

struct Config
{
    const char *name;
    MachineDesc machine;
    SchedulerKind scheduler;
    uint64_t expected;   ///< clustered schedules
    uint64_t unified;    ///< schedules on machine.unifiedEquivalent()
    uint64_t trajectory; ///< clustered search trajectories
    uint64_t unifiedTrajectory; ///< unified search trajectories
};

constexpr int digestLoops = 400;
constexpr int publishedLoops = 1327;

/** Appends one report line; returns whether the digest matched. */
bool
checkRow(std::string &report, const std::string &name, uint64_t computed,
         uint64_t expected)
{
    char line[128];
    std::snprintf(line, sizeof line, "  %-36s 0x%016" PRIx64 "ULL%s\n",
                  name.c_str(), computed,
                  computed == expected ? "" : "  <- differs");
    report += line;
    return computed == expected;
}

/** The model digest of a row in which the exact arm decoded nothing. */
constexpr uint64_t noModel = 0xcbf29ce484222325ULL;

/** Expected verdict, model and work digests of one row. */
struct Expected
{
    uint64_t verdict;
    uint64_t model;
    uint64_t work;
};

/** Appends a row's verdict, model and work lines; returns whether all
 *  three digests matched. */
bool
checkDigests(std::string &report, const std::string &name,
             const Digests &computed, const Expected &expected)
{
    bool same = checkRow(report, name, computed.verdict.value(),
                         expected.verdict);
    same &= checkRow(report, name + " model", computed.model.value(),
                     expected.model);
    same &= checkRow(report, name + " work", computed.work.value(),
                     expected.work);
    return same;
}

/**
 * Compiles published-suite loops [first, last) on every config and
 * expects each config's four digests.
 */
void
expectSuiteDigests(const std::vector<Config> &configs, int first,
                   int last)
{
    const std::vector<Dfg> suite = buildSuite(last);

    std::string report;
    int mismatches = 0;
    for (const Config &config : configs) {
        CompileOptions options;
        options.scheduler = config.scheduler;
        const MachineDesc unified = config.machine.unifiedEquivalent();
        Fnv1a schedules;
        Fnv1a unifiedSchedules;
        Fnv1a trajectories;
        Fnv1a unifiedTrajectories;
        for (int i = first; i < last; ++i) {
            const Dfg &loop = suite[i];
            const CompileResult result =
                compileClustered(loop, config.machine, options);
            digestResult(schedules, result);
            digestTrajectory(trajectories, result);
            const CompileResult base = compileUnified(loop, unified, options);
            digestResult(unifiedSchedules, base);
            digestTrajectory(unifiedTrajectories, base);
        }
        const std::string name = config.name;
        mismatches += !checkRow(report, name, schedules.value(),
                                config.expected);
        mismatches += !checkRow(report, name + " unified",
                                unifiedSchedules.value(), config.unified);
        mismatches += !checkRow(report, name + " trajectory",
                                trajectories.value(), config.trajectory);
        mismatches += !checkRow(report, name + " unified trajectory",
                                unifiedTrajectories.value(),
                                config.unifiedTrajectory);
    }
    EXPECT_EQ(mismatches, 0) << "computed digests:\n" << report;
}

TEST(ScheduleDigest, PublishedSuiteOnBenchmarkMachines)
{
    const std::vector<Config> configs = {
        {"2c-gp-2b-1p/sms", busedGpMachine(2, 2, 1), SchedulerKind::Swing,
         0x3cb1f7b310b5ec8dULL,
         0x45ed008e99b7cdaaULL, 0xa2ec31bfc8773d60ULL,
         0x8471ba275b0f8940ULL},
        {"2c-gp-2b-1p/ims", busedGpMachine(2, 2, 1),
         SchedulerKind::Iterative, 0xa1401e6dc0daa0fdULL,
         0x335bf92d42b13bf8ULL, 0xa2ec31bfc8773d60ULL,
         0x8471ba275b0f8940ULL},
        {"4c-gp-4b-2p/sms", busedGpMachine(4, 4, 2), SchedulerKind::Swing,
         0x9227ed87e7f6457dULL,
         0x348bb931e4231900ULL, 0x8ad0ba4fe6b5931dULL,
         0x1355059b0de640adULL},
        {"4c-gp-4b-2p/ims", busedGpMachine(4, 4, 2),
         SchedulerKind::Iterative, 0x61b8102640e15b8aULL,
         0x69f79ccd30fd9a9fULL, 0x157d28ea8332587fULL,
         0x1355059b0de640adULL},
        {"2c-fs-2b-1p/sms", busedFsMachine(2, 2, 1), SchedulerKind::Swing,
         0xd7c67986cd28a326ULL,
         0xcabe45dcfbd903eeULL, 0xd5923915a26fe002ULL,
         0xb46318b02f799330ULL},
        {"2c-fs-2b-1p/ims", busedFsMachine(2, 2, 1),
         SchedulerKind::Iterative, 0x92cba2a90259261dULL,
         0xd4e180e3c5350a97ULL, 0xb1864eec0f14270eULL,
         0xb46318b02f799330ULL},
        {"4c-fs-2b-2p/sms", busedFsMachine(4, 2, 2), SchedulerKind::Swing,
         0x4a3e25bc6730dacbULL,
         0x4977d2c2a0e58adeULL, 0x9c3b7f2f2c3efa2cULL,
         0x54b2a4dec033a2b5ULL},
        {"4c-fs-2b-2p/ims", busedFsMachine(4, 2, 2),
         SchedulerKind::Iterative, 0xa873e49714672458ULL,
         0xbcbbc666a9f21fb0ULL, 0x315ff9e4e45e149eULL,
         0x54b2a4dec033a2b5ULL},
        {"4c-grid-2p/sms", gridMachine(2), SchedulerKind::Swing,
         0x0ce73aca7ebf46b8ULL,
         0x613ecb485ac96b30ULL, 0x7aff896611a9fa07ULL,
         0x0ad76c1d2e639650ULL},
        {"4c-grid-2p/ims", gridMachine(2), SchedulerKind::Iterative,
         0x565b42ae5e337dc0ULL,
         0x4d09afa29fa97c4aULL, 0x00d92ea4e0dd49f9ULL,
         0x0ad76c1d2e639650ULL},
        {"8c-gp-7b-3p/sms", busedGpMachine(8, 7, 3), SchedulerKind::Swing,
         0xab8bf6c54506183aULL,
         0x197ac5e1616a8d38ULL, 0x9294634f1626e19cULL,
         0xcd12eeb4806f1b6bULL},
        {"8c-gp-7b-3p/ims", busedGpMachine(8, 7, 3),
         SchedulerKind::Iterative, 0xdc0f633786961f6aULL,
         0x697440eca346bf32ULL, 0x9294634f1626e19cULL,
         0xcd12eeb4806f1b6bULL},
    };
    expectSuiteDigests(configs, 0, digestLoops);
}

// The rest of the published suite, loops 401-1327, on the same
// configs: with the row above, every published loop is pinned on
// both schedulers.
TEST(ScheduleDigest, PublishedSuiteRestOnBenchmarkMachines)
{
    const std::vector<Config> configs = {
        {"2c-gp-2b-1p/sms", busedGpMachine(2, 2, 1), SchedulerKind::Swing,
         0x098c93742f4d1ea9ULL,
         0x59c011d26c55b687ULL, 0x755f93cf21295260ULL,
         0x56178179fe1f1151ULL},
        {"2c-gp-2b-1p/ims", busedGpMachine(2, 2, 1),
         SchedulerKind::Iterative, 0x9a0c70db672058f0ULL,
         0xfb1afc4b20fb1b2dULL, 0x755f93cf21295260ULL,
         0x56178179fe1f1151ULL},
        {"4c-gp-4b-2p/sms", busedGpMachine(4, 4, 2), SchedulerKind::Swing,
         0x3dcdd2acd510e746ULL,
         0xe542ee76c8507babULL, 0x2d2c17bc1c014236ULL,
         0xfc6f869d1a81ad13ULL},
        {"4c-gp-4b-2p/ims", busedGpMachine(4, 4, 2),
         SchedulerKind::Iterative, 0xa0e46e5eb6383567ULL,
         0x5188f773301b32e0ULL, 0x2d2c17bc1c014236ULL,
         0xfc6f869d1a81ad13ULL},
        {"2c-fs-2b-1p/sms", busedFsMachine(2, 2, 1), SchedulerKind::Swing,
         0xd65b863a314a26d8ULL,
         0x15c89e682bc6cf93ULL, 0x88fb26315c940223ULL,
         0x237ae7c58cace7c5ULL},
        {"2c-fs-2b-1p/ims", busedFsMachine(2, 2, 1),
         SchedulerKind::Iterative, 0xc65aab08e03531e2ULL,
         0x1a93bad99b9ec3f4ULL, 0x233d01f8eceee4dfULL,
         0x8a0ac9fd399b5f85ULL},
        {"4c-fs-2b-2p/sms", busedFsMachine(4, 2, 2), SchedulerKind::Swing,
         0xff0373f7e05fbaccULL,
         0x327eb79eb7b1a1f9ULL, 0xb4c78ae1937bb7b0ULL,
         0xafdd9b542ff91691ULL},
        {"4c-fs-2b-2p/ims", busedFsMachine(4, 2, 2),
         SchedulerKind::Iterative, 0x64e46e7ac3e6fec4ULL,
         0x713f8d55887b951aULL, 0xaf60a3d199c2a992ULL,
         0xafdd9b542ff91691ULL},
        {"4c-grid-2p/sms", gridMachine(2), SchedulerKind::Swing,
         0x55809cb93204bacaULL,
         0x2ab4da6c078b8aaaULL, 0xb67d6eeed65284faULL,
         0xc1ccd58854a84b97ULL},
        {"4c-grid-2p/ims", gridMachine(2), SchedulerKind::Iterative,
         0xee93d60d00c37190ULL,
         0xb7315e54c1ce0afaULL, 0x0227f8647653571eULL,
         0xc1ccd58854a84b97ULL},
        {"8c-gp-7b-3p/sms", busedGpMachine(8, 7, 3), SchedulerKind::Swing,
         0xe6dba4ae632aee4cULL,
         0x06b11b26800b2fb5ULL, 0x0995bcda212d2882ULL,
         0xc1fa236ab752c513ULL},
        {"8c-gp-7b-3p/ims", busedGpMachine(8, 7, 3),
         SchedulerKind::Iterative, 0x11a2a09210239356ULL,
         0x9e4c519802736aefULL, 0xc451479ed46c0cb2ULL,
         0xc1fa236ab752c513ULL},
    };
    expectSuiteDigests(configs, digestLoops, publishedLoops);
}

// No published-suite loop reaches the degradation ladder. This one,
// from camsbench's seed-107 suite, runs the whole II search dry on the
// four-cluster FS machine and ends on the single-cluster rung.
TEST(ScheduleDigest, DegradationLadder)
{
    const Dfg loop = buildSuite(2314, 107).back();
    ASSERT_EQ(loop.name(), "synth2313");
    const CompileResult result =
        compileClustered(loop, busedFsMachine(4, 2, 2), CompileOptions{});
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.degraded, DegradeLevel::SingleCluster);
    EXPECT_EQ(result.ii, 47);
    EXPECT_EQ(result.attempts, 110);
    Fnv1a h;
    digestResult(h, result);
    digestTrajectory(h, result);
    std::string report;
    EXPECT_TRUE(checkRow(report, "4c-fs-2b-2p/sms synth2313", h.value(),
                         0x962d8d272d534e47ULL))
        << "computed digest:\n" << report;
}

// Race mode: the heuristic answers first, then the exact arm tightens
// the II or certifies it optimal (or rescues a failed search).
TEST(ScheduleDigest, RaceArm)
{
    struct Row
    {
        const char *name;
        MachineDesc machine;
        Expected expected;
    };
    const std::vector<Row> rows = {
        {"4c-fs-2b-2p/race", busedFsMachine(4, 2, 2),
         {0x95e298d6a1280454ULL, 0x6d8ba5ab6cd54879ULL,
          0x072114ff28853a9eULL}},
        {"4c-gp-4b-2p/race", busedGpMachine(4, 4, 2),
         {0x7414370c80559c9dULL, 0x8d52bee38ee4739aULL,
          0x7a7c51407be7ef32ULL}},
    };
    const std::vector<Dfg> suite = buildSuite(100);
    CompileOptions options;
    options.backend = CompileBackend::Race;
    std::string report;
    int mismatches = 0;
    for (const Row &row : rows) {
        Digests d;
        for (const Dfg &loop : suite)
            d.add(compileClustered(loop, row.machine, options));
        mismatches += !checkDigests(report, row.name, d, row.expected);
    }
    EXPECT_EQ(mismatches, 0) << "computed digests:\n" << report;
}

// Exact mode: the SAT ladder is the whole II search.
TEST(ScheduleDigest, ExactBackend)
{
    const std::vector<Dfg> suite = buildSuite(60);
    CompileOptions options;
    options.backend = CompileBackend::Exact;
    Digests d;
    for (const Dfg &loop : suite)
        d.add(compileClustered(loop, busedGpMachine(2, 2, 1), options));
    std::string report;
    EXPECT_TRUE(checkDigests(report, "2c-gp-2b-1p/exact", d,
                             {0x079bd20330c34132ULL, 0x32d17e33b38f1aadULL,
                              0x11d0382e825a92b6ULL}))
        << "computed digests:\n" << report;
}

// Seeded generated loops, a third of them small enough for the
// exhaustive rung, under options that drive every compile off the
// primary path: a scheduler that never finds a slot, an expired time
// budget, an empty II window and an exact backend the machine cannot
// encode -- each with the ladder on, and the first three with it off.
TEST(ScheduleDigest, LadderAndBudgets)
{
    std::vector<Dfg> loops;
    int small = 0;
    for (uint64_t seed = 0; seed < 48; ++seed) {
        loops.push_back(generateLoop(
            5000 + seed, GeneratorParams{.maxNodes = 24}));
        small += loops.back().numNodes() <= 8;
    }
    ASSERT_GE(small, 8);

    // Every found schedule is discarded, so the sweep runs to its
    // limit; no II slack keeps that limit at 4 * MII.
    auto denySlots = [](CompileOptions &o) {
        FaultConfig faults;
        faults.probability[int(FaultSite::SchedulerSlotDeny)] = 1.0;
        o.faults = std::make_shared<FaultInjector>(faults);
        o.iiSlack = 0;
    };
    struct Variant
    {
        const char *name;
        std::function<void(CompileOptions &)> set;
        Expected expected;
    };
    const std::vector<Variant> variants = {
        {"slot-deny", denySlots,
         {0x2725c4988dcf337eULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"slot-deny no-fallback",
         [&](CompileOptions &o) {
             denySlots(o);
             o.fallback = false;
         },
         {0x7882acb1ce78a22fULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"expired budget",
         [](CompileOptions &o) { o.timeBudgetMs = 1e-6; },
         {0x6f0babc446ff36e5ULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"expired budget no-fallback",
         [](CompileOptions &o) {
             o.timeBudgetMs = 1e-6;
             o.fallback = false;
         },
         {0x952aa938d692cb25ULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"empty II window",
         [](CompileOptions &o) { o.iiSlack = -1000; },
         {0x6f0babc446ff36e5ULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"empty II window no-fallback",
         [](CompileOptions &o) {
             o.iiSlack = -1000;
             o.fallback = false;
         },
         {0x44166696f7939d25ULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"exact backend",
         [](CompileOptions &o) { o.backend = CompileBackend::Exact; },
         {0x1358d8405003d768ULL, 0x5fb792080da5c1e0ULL,
          0x14ea3012ba8ec3d3ULL}},
        {"exact probe limit",
         [](CompileOptions &o) {
             o.backend = CompileBackend::Exact;
             o.exact.maxProbes = 1;
         },
         {0x750cdbb906f090acULL, 0x481f127e00f6af4eULL,
          0x2ca825a35b1c3ec7ULL}},
        {"exact expired budget",
         [](CompileOptions &o) {
             o.backend = CompileBackend::Exact;
             o.timeBudgetMs = 1e-6;
         },
         {0x6a764ba529075565ULL, noModel, 0xb54ec33c111e8b25ULL}},
        {"race slot-deny",
         [&](CompileOptions &o) {
             denySlots(o);
             o.backend = CompileBackend::Race;
         },
         {0xbb35a5bbcc65840fULL, 0x5fb792080da5c1e0ULL,
          0x14ea3012ba8ec3d3ULL}},
    };
    const std::vector<MachineDesc> machines = {busedGpMachine(2, 2, 1),
                                               gridMachine(2)};
    std::string report;
    int mismatches = 0;
    for (const Variant &variant : variants) {
        Digests d;
        for (const MachineDesc &machine : machines) {
            const MachineDesc unified = machine.unifiedEquivalent();
            for (const Dfg &loop : loops) {
                // A fresh injector per compile keeps each one's
                // coin-flip stream independent of the others.
                CompileOptions options;
                variant.set(options);
                d.add(compileClustered(loop, machine, options));
                variant.set(options);
                d.add(compileUnified(loop, unified, options));
            }
        }
        mismatches += !checkDigests(report, variant.name, d,
                                    variant.expected);
    }
    EXPECT_EQ(mismatches, 0) << "computed digests:\n" << report;
}

} // namespace
} // namespace cams
