/**
 * @file
 * Tests of the exact backend: the CDCL core (unit propagation,
 * conflict learning, restart schedule termination, deterministic
 * conflict budgets), the joint assignment+scheduling encoder's
 * round-trip through the independent verifier, and the driver's
 * backend protocol (exact optimality, race tighten/certify, the
 * heuristic default leaving the arm untouched).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exact/encode.hh"
#include "exact/exact.hh"
#include "exact/sat.hh"
#include "graph/dfg.hh"
#include "machine/configs.hh"
#include "mrt/mrt.hh"
#include "pipeline/batch.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "sched/verifier.hh"
#include "support/random.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

// ---------------------------------------------------------------- SAT

TEST(SatSolver, EmptyInstanceIsSat)
{
    SatSolver solver;
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
}

TEST(SatSolver, UnitPropagationChains)
{
    SatSolver solver;
    const SatVar a = solver.newVar();
    const SatVar b = solver.newVar();
    const SatVar c = solver.newVar();
    solver.addClause(mkLit(a));                       // a
    solver.addClause(~mkLit(a), mkLit(b));            // a -> b
    solver.addClause(~mkLit(b), mkLit(c));            // b -> c
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
    EXPECT_EQ(solver.value(a), 1);
    EXPECT_EQ(solver.value(b), 1);
    EXPECT_EQ(solver.value(c), 1);
    // The chain resolves at the root: no search was needed.
    EXPECT_EQ(solver.stats().decisions, 0);
}

TEST(SatSolver, RootContradictionIsUnsat)
{
    SatSolver solver;
    const SatVar a = solver.newVar();
    solver.addClause(mkLit(a));
    solver.addClause(~mkLit(a));
    EXPECT_FALSE(solver.okay());
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
}

TEST(SatSolver, TinyUnsatNeedsConflictAnalysis)
{
    // All four clauses over {a, b}: UNSAT only via learning.
    SatSolver solver;
    const SatVar a = solver.newVar();
    const SatVar b = solver.newVar();
    solver.addClause(mkLit(a), mkLit(b));
    solver.addClause(mkLit(a), ~mkLit(b));
    solver.addClause(~mkLit(a), mkLit(b));
    solver.addClause(~mkLit(a), ~mkLit(b));
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
    EXPECT_GT(solver.stats().conflicts, 0);
}

TEST(SatSolver, SatisfiableAfterLearning)
{
    // XOR-ish structure with one satisfying corner.
    SatSolver solver;
    std::vector<SatVar> v;
    for (int i = 0; i < 6; ++i)
        v.push_back(solver.newVar());
    solver.addClause(mkLit(v[0]), mkLit(v[1]), mkLit(v[2]));
    solver.addClause(~mkLit(v[0]), ~mkLit(v[1]));
    solver.addClause(~mkLit(v[0]), ~mkLit(v[2]));
    solver.addClause(~mkLit(v[1]), ~mkLit(v[2]));
    solver.addClause(mkLit(v[3]), mkLit(v[4]));
    solver.addClause(~mkLit(v[3]), mkLit(v[5]));
    EXPECT_EQ(solver.solve({}), SatStatus::Sat);
    // Model check: exactly one of v0..v2 true.
    const int ones =
        solver.value(v[0]) + solver.value(v[1]) + solver.value(v[2]);
    EXPECT_EQ(ones, 1);
    EXPECT_TRUE(solver.value(v[3]) == 1 || solver.value(v[4]) == 1);
}

/** Pigeonhole principle php(n+1, n): n+1 pigeons, n holes, UNSAT and
 *  exponentially hard for resolution -- a dense conflict source. */
void
encodePigeonhole(SatSolver &solver, int pigeons, int holes)
{
    std::vector<std::vector<SatLit>> at(pigeons);
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p].push_back(mkLit(solver.newVar()));
    for (int p = 0; p < pigeons; ++p)
        solver.addClause(at[p]); // every pigeon sits somewhere
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(~at[p][h], ~at[q][h]);
}

TEST(SatSolver, PigeonholeUnsatSurvivesManyRestarts)
{
    // Regression: the Luby restart schedule must terminate past its
    // 7th restart (a subtraction bug once turned luby(7) into an
    // infinite loop). php(8,7) reliably burns thousands of conflicts
    // and well over seven restarts.
    SatSolver solver;
    encodePigeonhole(solver, 8, 7);
    EXPECT_EQ(solver.solve({}), SatStatus::Unsat);
    EXPECT_GT(solver.stats().restarts, 7);
}

TEST(SatSolver, ConflictBudgetIsDeterministic)
{
    auto run = [](long budget) {
        SatSolver solver;
        encodePigeonhole(solver, 8, 7);
        SatBudget b;
        b.maxConflicts = budget;
        const SatStatus status = solver.solve(b);
        return std::make_pair(status, solver.stats().conflicts);
    };
    const auto [status, conflicts] = run(200);
    EXPECT_EQ(status, SatStatus::Unknown);
    EXPECT_EQ(conflicts, 200);
    // Same instance, same budget => identical cancellation point.
    const auto [status2, conflicts2] = run(200);
    EXPECT_EQ(status2, SatStatus::Unknown);
    EXPECT_EQ(conflicts2, 200);
}

/** A clause over at most 32 variables as sign masks: bit v of pos
 *  (neg) set = v occurs positively (negated). */
struct MaskClause
{
    uint32_t pos = 0;
    uint32_t neg = 0;

    bool
    satisfiedBy(uint32_t assignment) const
    {
        return ((assignment & pos) | (~assignment & neg)) != 0;
    }
};

/** Brute force: whether some assignment of the first n variables
 *  satisfies every clause. */
bool
bruteForceSat(const std::vector<MaskClause> &clauses, int n)
{
    for (uint32_t a = 0; a < (uint32_t{1} << n); ++a) {
        const auto falsified = [a](const MaskClause &c) {
            return !c.satisfiedBy(a);
        };
        if (std::none_of(clauses.begin(), clauses.end(), falsified))
            return true;
    }
    return false;
}

// Seeded random CNFs of 1-4-literal clauses near the satisfiability
// threshold, so both verdicts occur. Variables are drawn with
// replacement and a clause sometimes repeats or negates one of its own
// literals, so addClause's root simplification (duplicates,
// tautologies, units, clauses already true or false) runs too. The
// solver's verdict must equal enumeration's, and its models must
// satisfy every clause.
TEST(SatSolver, RandomCnfMatchesBruteForce)
{
    int sat = 0;
    int unsat = 0;
    for (uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(seed);
        const int n = seed % 40 == 0 ? 20 : rng.uniformInt(1, 12);
        const int m = static_cast<int>(n * 3.6 + rng.uniformInt(0, 3));
        SatSolver solver;
        for (int v = 0; v < n; ++v)
            solver.newVar();
        std::vector<std::vector<SatLit>> clauses;
        std::vector<MaskClause> masks;
        for (int i = 0; i < m; ++i) {
            const int width =
                rng.weightedIndex({0.0, 0.04, 0.24, 0.48, 0.24});
            std::vector<SatLit> lits;
            MaskClause mask;
            for (int j = 0; j < width; ++j) {
                SatLit lit = mkLit(rng.uniformInt(0, n - 1), rng.chance(0.5));
                if (j > 0 && rng.chance(0.1))
                    lit = rng.chance(0.5) ? lits[0] : ~lits[0];
                lits.push_back(lit);
                const uint32_t bit = uint32_t{1} << lit.var();
                (lit.sign() ? mask.neg : mask.pos) |= bit;
            }
            solver.addClause(lits);
            clauses.push_back(lits);
            masks.push_back(mask);
        }
        const bool expected = bruteForceSat(masks, n);
        const SatStatus status = solver.solve();
        ASSERT_EQ(status, expected ? SatStatus::Sat : SatStatus::Unsat)
            << "seed " << seed;
        (expected ? sat : unsat) += 1;
        if (status != SatStatus::Sat)
            continue;
        for (const std::vector<SatLit> &clause : clauses) {
            EXPECT_TRUE(std::any_of(clause.begin(), clause.end(),
                                    [&](SatLit l) {
                                        return solver.value(l.var()) !=
                                               l.sign();
                                    }))
                << "seed " << seed << ": model falsifies a clause";
        }
    }
    EXPECT_GE(sat, 100);
    EXPECT_GE(unsat, 100);
}

// ------------------------------------------------------------ encoder

/** A 2-cluster-friendly loop: two parallel chains joined at the end,
 *  with a recurrence to pin RecMII. */
Dfg
twoChainLoop()
{
    Dfg graph;
    graph.setName("two_chain");
    const NodeId a0 = graph.addNode(Opcode::Load);
    const NodeId a1 = graph.addNode(Opcode::IntAlu);
    const NodeId a2 = graph.addNode(Opcode::FpMult);
    const NodeId b0 = graph.addNode(Opcode::Load);
    const NodeId b1 = graph.addNode(Opcode::IntAlu);
    const NodeId b2 = graph.addNode(Opcode::FpAdd);
    const NodeId join = graph.addNode(Opcode::IntAlu);
    const NodeId store = graph.addNode(Opcode::Store);
    graph.addEdge(a0, a1);
    graph.addEdge(a1, a2);
    graph.addEdge(a2, join);
    graph.addEdge(b0, b1);
    graph.addEdge(b1, b2);
    graph.addEdge(b2, join);
    graph.addEdge(join, store);
    graph.addEdge(join, a1, -1, 1); // recurrence through chain A
    return graph;
}

TEST(ExactEncoder, RoundTripsThroughVerifier)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MiiInfo mii =
        computeMii(graph, machine.unifiedEquivalent());
    ASSERT_GE(mii.mii, 1);

    ExactOptions options;
    ExactDecision decision;
    int ii = mii.mii;
    for (; ii <= mii.mii + 8; ++ii) {
        decision = exactDecideAtIi(graph, model, ii, options);
        ASSERT_NE(decision.verdict, ExactVerdict::Unsupported)
            << decision.detail;
        if (decision.verdict == ExactVerdict::Sat)
            break;
        ASSERT_EQ(decision.verdict, ExactVerdict::Unsat);
    }
    ASSERT_EQ(decision.verdict, ExactVerdict::Sat);

    // The decision is already verifier-approved internally; prove it
    // again here, independently.
    std::string why;
    EXPECT_TRUE(decision.loop.validate(machine, &why)) << why;
    EXPECT_TRUE(
        verifySchedule(decision.loop, model, decision.schedule, &why))
        << why;
    // Every original node must be placed and scheduled.
    EXPECT_GE(decision.loop.graph.numNodes(), graph.numNodes());
    EXPECT_EQ(decision.schedule.startCycle.size(),
              static_cast<size_t>(decision.loop.graph.numNodes()));
}

TEST(ExactEncoder, MatchesUnifiedMiiOnSuitePrefix)
{
    // On the reference 2-cluster machine the exact II can never beat
    // the unified-machine MII (it is a relaxation); sanity-check the
    // encoder agrees over a suite prefix.
    const std::vector<Dfg> suite = buildSuite(8, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    for (const Dfg &graph : suite) {
        const MiiInfo mii =
            computeMii(graph, machine.unifiedEquivalent());
        if (mii.mii <= 1)
            continue; // no II below MII to probe
        const ExactDecision below = exactDecideAtIi(
            graph, model, mii.mii - 1, ExactOptions{});
        EXPECT_EQ(below.verdict, ExactVerdict::Unsat)
            << graph.name() << " not refuted below the MII";
    }
}

TEST(ExactEncoder, BelowResMiiIsUnsatWithoutSearch)
{
    // synth7 (59 nodes) has ResMII 8 on 2c-gp-2b-1p: eight units
    // cannot issue its operations in 7 cycles. Proving that by CDCL
    // is a pigeonhole search of tens of thousands of conflicts; the
    // counting verdict needs none.
    const Dfg graph = buildSuite(8, defaultSuiteSeed)[7];
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    ASSERT_EQ(graph.name(), "synth7");
    ASSERT_EQ(resMii(graph, machine), 8);
    const ExactDecision decision = exactDecideAtIi(
        graph, ResourceModel(machine), 7, ExactOptions{});
    EXPECT_EQ(decision.verdict, ExactVerdict::Unsat);
    EXPECT_EQ(decision.conflicts, 0);
}

TEST(ExactEncoder, BudgetCancellationReportsBudget)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const MiiInfo mii =
        computeMii(graph, machine.unifiedEquivalent());
    ExactOptions options;
    options.conflictBudget = 1; // nothing real fits in one conflict
    const ExactDecision decision =
        exactDecideAtIi(graph, model, mii.mii, options);
    // Either the instance solved without a single conflict (fine) or
    // the budget fired and the verdict says so honestly.
    if (decision.verdict != ExactVerdict::Sat) {
        EXPECT_EQ(decision.verdict, ExactVerdict::Budget);
        EXPECT_FALSE(decision.detail.empty());
    }
}

TEST(ExactEncoder, NodeLimitIsUnsupported)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    ExactOptions options;
    options.nodeLimit = 2;
    const ExactDecision decision =
        exactDecideAtIi(graph, model, 4, options);
    EXPECT_EQ(decision.verdict, ExactVerdict::Unsupported);
    EXPECT_EQ(decision.detail, "node_limit");
}

// A two-node recurrence fed by a third node, worked by hand. At II 4
// the SCC {a, b} has span(a, b) = 2 and span(b, a) = 2 - 4 = -2. The
// feeder c enters it no later than 3, its copy lat_c + II - 1 = 4
// cycles later, so a consumer through the copy starts by 3 + 4 + 4 =
// 11; b trails a by at most 2. At II 3 the recurrence's lower-bound
// cycle is 2 + 2 - 3 > 0: no schedule exists, so there are no caps.
TEST(ExactEncoder, LatestStartsByHand)
{
    Dfg graph;
    const NodeId a = graph.addNode(Opcode::IntAlu, 2);
    const NodeId b = graph.addNode(Opcode::IntAlu, 2);
    const NodeId c = graph.addNode(Opcode::IntAlu, 1);
    graph.addEdge(a, b);
    graph.addEdge(b, a, -1, 1);
    graph.addEdge(c, a);
    EXPECT_EQ(latestStarts(graph, 4), (std::vector<long>{11, 13, 3}));
    EXPECT_TRUE(latestStarts(graph, 3).empty());
}

/**
 * The normal form the certificate-window caps are argued for: the
 * schedule's rows kept, every stage lowered to the least solution of
 * the annotated loop's dependences, the earliest start shifted to 0.
 */
std::vector<int>
normalisedStarts(const Dfg &graph, const Schedule &schedule)
{
    const int ii = schedule.ii;
    const int n = graph.numNodes();
    std::vector<int> row(n);
    std::vector<int> stage(n, 0);
    for (NodeId v = 0; v < n; ++v)
        row[v] = (schedule.startCycle[v] % ii + ii) % ii;
    // Raise consumers until every edge holds; a feasible schedule has
    // no positive cycle, so this stops.
    for (bool changed = true; changed;) {
        changed = false;
        for (const DfgEdge &e : graph.edges()) {
            const int need = row[e.src] + ii * stage[e.src] + e.latency -
                             ii * e.distance - row[e.dst];
            if (need > ii * stage[e.dst]) {
                stage[e.dst] = (need + ii - 1) / ii;
                changed = true;
            }
        }
    }
    std::vector<int> starts(n);
    for (NodeId v = 0; v < n; ++v)
        starts[v] = row[v] + ii * stage[v];
    const int earliest = *std::min_element(starts.begin(), starts.end());
    for (int &start : starts)
        start -= earliest;
    return starts;
}

// latestStarts against the schedules compiles really produce: in
// normal form, every heuristic and exact schedule of the first 200
// published loops stays verifier-approved, every start sits at or
// below its cap, and every copy at or below its producer's cap + lat +
// II - 1 -- the caps every window encodes -- and below
// soundHorizon(II), the certificate window itself.
TEST(ExactEncoder, LatestStartsBoundNormalisedSchedules)
{
    const std::vector<Dfg> suite = buildSuite(200);
    CompileOptions exact;
    exact.backend = CompileBackend::Exact;
    const std::vector<MachineDesc> machines = {busedFsMachine(4, 2, 2),
                                               busedGpMachine(4, 4, 2)};
    for (const MachineDesc &machine : machines) {
        SCOPED_TRACE(machine.name);
        const ResourceModel model(machine);
        std::vector<CompileJob> jobs = clusteredJobs(suite, machine);
        for (const CompileJob &job : clusteredJobs(suite, machine, exact))
            jobs.push_back(job);
        const BatchOutcome batch = BatchRunner::run(jobs, 2);
        for (size_t j = 0; j < jobs.size(); ++j) {
            const CompileResult &r = batch.results[j];
            SCOPED_TRACE(jobs[j].loop->name() + " II " + std::to_string(r.ii));
            ASSERT_TRUE(r.success);
            const std::vector<long> caps = latestStarts(*jobs[j].loop, r.ii);
            ASSERT_EQ(caps.size(),
                      static_cast<size_t>(r.loop.numOriginalNodes));
            const int horizon =
                ExactEncoder(*jobs[j].loop, model).soundHorizon(r.ii);
            Schedule normal = r.schedule;
            normal.startCycle = normalisedStarts(r.loop.graph, r.schedule);
            std::string why;
            EXPECT_TRUE(verifySchedule(r.loop, model, normal, &why)) << why;
            for (NodeId v = 0; v < r.loop.graph.numNodes(); ++v) {
                long cap;
                if (r.loop.isCopy(v)) {
                    const NodeId producer =
                        r.loop.graph.edge(r.loop.graph.inEdges(v)[0]).src;
                    cap = caps[producer] +
                          r.loop.graph.node(producer).latency + r.ii - 1;
                } else {
                    cap = caps[v];
                }
                EXPECT_LE(normal.startCycle[v], cap) << "node " << v;
                EXPECT_LT(normal.startCycle[v], horizon) << "node " << v;
            }
        }
    }
}

/**
 * Runs @p check(encoder, result, machine, model) on every heuristic
 * schedule of the first 100 published loops on the four race and
 * audit machines whose loop the exact arm can encode.
 */
template <typename Check>
void
forEachHeuristicSchedule(Check check)
{
    const std::vector<Dfg> suite = buildSuite(100);
    const std::vector<MachineDesc> machines = {
        busedFsMachine(4, 2, 2), busedGpMachine(4, 4, 2),
        busedGpMachine(2, 2, 1), busedFsMachine(2, 2, 1)};
    for (const MachineDesc &machine : machines) {
        SCOPED_TRACE(machine.name);
        const ResourceModel model(machine);
        const BatchOutcome batch =
            BatchRunner::run(clusteredJobs(suite, machine), 2);
        for (size_t i = 0; i < suite.size(); ++i) {
            const CompileResult &r = batch.results[i];
            const Dfg &graph = suite[i];
            ExactEncoder encoder(graph, model);
            if (!r.success || graph.numNodes() > ExactOptions{}.nodeLimit ||
                !encoder.supported(nullptr))
                continue;
            SCOPED_TRACE(graph.name() + " II " + std::to_string(r.ii));
            check(encoder, r, machine, model);
        }
    }
}

/** The window (@p ii, @p horizon) must be SAT within the default
 *  conflict budget and decode into a verifier-approved schedule. */
void
expectWindowAdmits(ExactEncoder &encoder, int ii, int horizon,
                   const MachineDesc &machine, const ResourceModel &model)
{
    SatSolver solver;
    ASSERT_TRUE(encoder.encode(ii, horizon, solver));
    SatBudget budget;
    budget.maxConflicts = ExactOptions{}.conflictBudget;
    ASSERT_EQ(solver.solve(budget), SatStatus::Sat);
    AnnotatedLoop loop;
    Schedule schedule;
    encoder.decode(solver, loop, schedule);
    std::string why;
    EXPECT_TRUE(loop.validate(machine, &why)) << why;
    EXPECT_TRUE(verifySchedule(loop, model, schedule, &why)) << why;
}

// Completeness of the certificate window against the schedules the
// heuristic really finds. Wherever it schedules one of the first 100
// published loops at some II, the window soundHorizon(II) encodes --
// the per-node caps, the copy caps and every pool's kernel-wide count
// included -- must be SAT within the default conflict budget, and its
// model must decode into a verifier-approved schedule. A kernel-wide
// count one short, or a cap or horizon that cuts a schedule, turns
// some of these UNSAT.
TEST(ExactEncoder, CertificateWindowAdmitsHeuristicSchedules)
{
    int checked = 0;
    forEachHeuristicSchedule([&](ExactEncoder &encoder,
                                 const CompileResult &r,
                                 const MachineDesc &machine,
                                 const ResourceModel &model) {
        ++checked;
        expectWindowAdmits(encoder, r.ii, encoder.soundHorizon(r.ii),
                           machine, model);
    });
    EXPECT_GE(checked, 350);
}

// The caps hold in the fast window too. Published loop 1305 at II 10
// on 4c-fs-2b-2p is UNSAT, and its fast window (50 slots) is shorter
// than its certificate window: without caps the fast solve needs
// 8,231 conflicts to say so, with them as many as the certificate's.
TEST(ExactEncoder, FastWindowIsCapped)
{
    const Dfg graph = buildSuite(1306)[1305];
    ASSERT_EQ(graph.name(), "synth1305");
    const ResourceModel model(busedFsMachine(4, 2, 2));
    ExactEncoder encoder(graph, model);
    ASSERT_LT(encoder.fastHorizon(10), encoder.soundHorizon(10));
    SatSolver solver;
    ASSERT_TRUE(encoder.encode(10, encoder.fastHorizon(10), solver));
    SatBudget budget;
    budget.maxConflicts = 2000;
    EXPECT_EQ(solver.solve(budget), SatStatus::Unsat);
    EXPECT_LE(solver.stats().conflicts, 2000);
}

// Completeness of the capped fast window against the same schedules:
// wherever the normal form of one fits below fastHorizon(II), the fast
// window at that II must be SAT within the default conflict budget
// and decode into a verifier-approved schedule. A cap that cuts a
// schedule a short window holds turns some of these UNSAT.
TEST(ExactEncoder, FastWindowAdmitsNormalisedHeuristicSchedules)
{
    int checked = 0;
    forEachHeuristicSchedule([&](ExactEncoder &encoder,
                                 const CompileResult &r,
                                 const MachineDesc &machine,
                                 const ResourceModel &model) {
        const int fast = encoder.fastHorizon(r.ii);
        const std::vector<int> normal =
            normalisedStarts(r.loop.graph, r.schedule);
        if (*std::max_element(normal.begin(), normal.end()) >= fast)
            return;
        ++checked;
        expectWindowAdmits(encoder, r.ii, fast, machine, model);
    });
    EXPECT_GE(checked, 350);
}

// ------------------------------------------------------------- driver

TEST(ExactBackend, NamesRoundTrip)
{
    for (const CompileBackend backend :
         {CompileBackend::Heuristic, CompileBackend::Exact,
          CompileBackend::Race}) {
        CompileBackend parsed = CompileBackend::Heuristic;
        ASSERT_TRUE(
            parseCompileBackend(compileBackendName(backend), parsed));
        EXPECT_EQ(parsed, backend);
    }
    CompileBackend parsed;
    EXPECT_FALSE(parseCompileBackend("sat", parsed));
}

TEST(ExactBackend, HeuristicDefaultLeavesArmNotRun)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.exact.outcome, ExactOutcome::NotRun);
    EXPECT_EQ(result.exact.probes, 0);
}

TEST(ExactBackend, ExactModeIsOptimalAndVerified)
{
    const Dfg graph = twoChainLoop();
    const MachineDesc machine = busedGpMachine(2, 2, 1);

    CompileOptions heuristic;
    const CompileResult base =
        compileClustered(graph, machine, heuristic);
    ASSERT_TRUE(base.success);

    CompileOptions exact;
    exact.backend = CompileBackend::Exact;
    const CompileResult result =
        compileClustered(graph, machine, exact);
    ASSERT_TRUE(result.success) << result.failureDetail;
    EXPECT_EQ(result.exact.outcome, ExactOutcome::Sat);
    EXPECT_EQ(result.degraded, DegradeLevel::None);
    // Optimality: never worse than the heuristic, never below MII.
    EXPECT_LE(result.ii, base.ii);
    EXPECT_GE(result.ii, result.mii.mii);
    EXPECT_GT(result.exact.probes, 0);
}

TEST(ExactBackend, RaceTightensOrCertifies)
{
    const std::vector<Dfg> suite = buildSuite(12, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    options.backend = CompileBackend::Race;
    for (const Dfg &graph : suite) {
        const CompileResult result =
            compileClustered(graph, machine, options);
        ASSERT_TRUE(result.success) << graph.name();
        if (result.degraded != DegradeLevel::None)
            continue;
        // The race arm must reach a conclusion on these small loops:
        // tightened, certified, or an explicit budget/unsupported.
        if (result.exact.tightened) {
            EXPECT_EQ(result.exact.outcome, ExactOutcome::Sat);
            EXPECT_LT(result.ii, result.exact.heuristicIi);
        } else if (result.exact.certified) {
            EXPECT_EQ(result.exact.outcome, ExactOutcome::Unsat);
            EXPECT_EQ(result.ii, result.exact.heuristicIi);
        } else {
            EXPECT_TRUE(result.exact.outcome ==
                            ExactOutcome::Timeout ||
                        result.exact.outcome ==
                            ExactOutcome::Unsupported)
                << graph.name() << ": outcome "
                << exactOutcomeName(result.exact.outcome);
        }
    }
}

TEST(ExactBackend, RaceNeverWorseThanHeuristic)
{
    const std::vector<Dfg> suite = buildSuite(12, defaultSuiteSeed);
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    CompileOptions heuristic;
    CompileOptions race;
    race.backend = CompileBackend::Race;
    for (const Dfg &graph : suite) {
        const CompileResult base =
            compileClustered(graph, machine, heuristic);
        const CompileResult raced =
            compileClustered(graph, machine, race);
        ASSERT_EQ(base.success, raced.success) << graph.name();
        if (!base.success || base.degraded != DegradeLevel::None)
            continue;
        EXPECT_LE(raced.ii, base.ii) << graph.name();
    }
}

} // namespace
} // namespace cams
