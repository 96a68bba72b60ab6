#include "pipeline/driver.hh"

#include <limits>
#include <optional>

#include "assign/exhaustive.hh"
#include "exact/exact.hh"
#include "graph/recmii.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/context.hh"
#include "pipeline/degrade.hh"
#include "sched/ims.hh"
#include "sched/sms.hh"
#include "sched/verifier.hh"
#include "support/logging.hh"
#include "support/time.hh"

namespace cams
{

std::unique_ptr<ModuloScheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Swing:
        return std::make_unique<SwingModuloScheduler>();
      case SchedulerKind::Iterative:
        return std::make_unique<IterativeModuloScheduler>();
    }
    cams_panic("unknown scheduler kind");
}

const char *
degradeLevelName(DegradeLevel level)
{
    switch (level) {
      case DegradeLevel::None:
        return "none";
      case DegradeLevel::ExhaustiveAssign:
        return "exhaustive_assign";
      case DegradeLevel::SingleCluster:
        return "single_cluster";
    }
    cams_panic("unknown DegradeLevel ", int(level));
}

namespace
{

/** Emits a Decision-level pipeline instant tagged with the job. */
void
traceDecision(const TraceConfig &trace, const char *name,
              TraceArgs args)
{
    if (!trace.active(TraceLevel::Decision))
        return;
    if (!trace.tag.empty())
        args.emplace_back("job", trace.tag);
    trace.sink->instant(name, "pipeline", std::move(args));
}

/**
 * Rejects inputs the assigner or RecMII would cams_fatal on, or whose
 * II arithmetic could overflow, as a classified result instead: a
 * driver compile must never take the process down.
 */
bool
compilablePrecondition(const Dfg &graph, const MachineDesc &machine,
                       CompileResult &result)
{
    auto reject = [&](std::string why) {
        result.failure = FailureKind::InternalInvariant;
        result.failureDetail = std::move(why);
        return false;
    };
    std::string why;
    if (!graph.wellFormed(&why))
        return reject("malformed input graph: " + why);
    for (const DfgNode &node : graph.nodes()) {
        if (node.op == Opcode::Copy)
            return reject("input graph already contains copies");
        if (!machine.canExecute(node.op)) {
            return reject(detail::concat("machine '", machine.name,
                                         "' cannot execute ",
                                         opcodeName(node.op)));
        }
        if (node.latency > maxLoopLatency) {
            return reject(detail::concat(
                "malformed input graph: node latency ", node.latency,
                " exceeds ", maxLoopLatency));
        }
    }
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.latency > maxLoopLatency ||
            edge.distance > maxLoopDistance) {
            return reject(detail::concat(
                "malformed input graph: edge latency ", edge.latency,
                " / distance ", edge.distance, " exceeds ",
                maxLoopLatency, " / ", maxLoopDistance));
        }
    }
    if (hasZeroDistanceCycle(graph)) {
        return reject("malformed input graph: dependence cycle with "
                      "zero total distance");
    }
    return true;
}

/**
 * Admission, the first stage of every compile: the precondition check
 * and the cache probe. Fault injection makes outcomes intentionally
 * nondeterministic, so those compiles bypass the cache in both
 * directions. @return false when the result is already final (refused
 * or served from the cache); otherwise key holds the cache key when
 * finish() is to store the result.
 */
bool
admit(const Dfg &graph, const MachineDesc &machine,
      const CompileOptions &options, bool clustered, CompileResult &result,
      std::optional<CacheKey> &key)
{
    if (!compilablePrecondition(graph, machine, result))
        return false;
    if (options.cache == nullptr || !options.cache->enabled() ||
        (options.faults && options.faults->config().any()))
        return true;
    key = makeCacheKey(graph, machine, options, clustered);
    const bool hit = options.cache->lookup(*key, graph, machine, result);
    // A hit overwrote the whole result with the stored image, whose
    // transient flags are false: stamp them after the lookup.
    result.cacheProbed = true;
    result.fromCache = hit;
    if (!hit) {
        traceDecision(options.trace, "cache_probe", {{"outcome", "miss"}});
        return true;
    }
    traceDecision(options.trace, "cache_probe",
                  {{"outcome", "hit"}, {"ii", std::to_string(result.ii)}});
    return false;
}

/** Stable lowercase name of a per-II exact verdict (trace args). */
const char *
exactVerdictName(ExactVerdict verdict)
{
    switch (verdict) {
      case ExactVerdict::Sat:
        return "sat";
      case ExactVerdict::Unsat:
        return "unsat";
      case ExactVerdict::Budget:
        return "budget";
      case ExactVerdict::Unsupported:
        return "unsupported";
    }
    return "?";
}

/** Accepts a verified success into the result. */
void
acceptSchedule(CompileResult &result, AnnotatedLoop loop,
               Schedule schedule, int ii, DegradeLevel level)
{
    result.success = true;
    result.failure = FailureKind::None;
    result.failureDetail.clear();
    result.degraded = level;
    result.ii = ii;
    result.loop = std::move(loop);
    result.schedule = std::move(schedule);
    result.copies = result.loop.numCopies();
}

/**
 * The state of one admitted compile, and the stages both drivers are
 * sequences of: the II sweep, the schedule-and-verify step, the exact
 * ladder, the two rungs of the degradation ladder, and finish. Every
 * way an II can die updates the running failure classification, so a
 * final failure reports the last (deepest) cause rather than a
 * generic "gave up".
 */
struct Compile
{
    /**
     * Opens the compile's trace scope and computes the MII on
     * miiMachine. ctxGraph is the graph the shared LoopContext binds
     * to; cacheKey is admit()'s.
     */
    Compile(const char *scopeName, const Dfg &graph, const Dfg &ctxGraph,
            const MachineDesc &machine, const MachineDesc &miiMachine,
            const CompileOptions &options, CompileResult &result,
            std::optional<CacheKey> cacheKey)
        : graph(graph), machine(machine), options(options),
          result(result), cacheKey(std::move(cacheKey)),
          scope(options.trace, TraceLevel::Phase, scopeName, "pipeline"),
          ctx(ctxGraph), model(machine), faults(options.faults.get()),
          faultBase(faults ? faults->totalTrips() : 0),
          scheduler(makeScheduler(options.scheduler))
    {
        scope.arg("machine", machine.name);
        result.mii = computeMii(graph, miiMachine, ctx.recMii());
        limit = result.mii.mii * 4 + options.iiSlack;
        scheduler->setTrace(options.trace);
        result.failure = FailureKind::IiExhausted;
        // Every II a search probes writes its own detail, so only an
        // empty window keeps this one.
        if (limit < result.mii.mii) {
            result.failureDetail = detail::concat(
                "empty II search window [", result.mii.mii, ", ", limit, "]");
        }
    }

    /**
     * The Figure 5 II sweep: probes II = MII..limit until probe(ii)
     * accepts one, charging each probed II as an attempt under its
     * own "ii_attempt" scope. probe returns nullptr on acceptance or
     * the failed II's reason, which an "ii_escalate" instant records;
     * a probe's InternalError fails just that II. A deadline expiry
     * ends the sweep as a Timeout.
     */
    template <typename Probe>
    void sweep(Probe &&probe)
    {
        for (int ii = result.mii.mii; ii <= limit; ++ii) {
            if (deadline.expired()) {
                timedOut = true;
                result.failure = FailureKind::Timeout;
                result.failureDetail = detail::concat(
                    "time budget of ", options.timeBudgetMs,
                    " ms expired after ", result.attempts, " II attempts");
                traceDecision(
                    options.trace, "timeout",
                    {{"attempts", std::to_string(result.attempts)},
                     {"budget_ms", std::to_string(options.timeBudgetMs)}});
                return;
            }
            ++result.attempts;
            result.finalIiTried = ii;
            TraceScope ii_scope(options.trace, TraceLevel::Phase,
                                "ii_attempt", "pipeline");
            ii_scope.arg("ii", std::to_string(ii));
            const char *failed = nullptr;
            try {
                failed = probe(ii);
            } catch (const InternalError &err) {
                // A cams_check fired outside the assigner's own
                // recovery: charge this II and move on.
                ++result.invariantRecoveries;
                result.failure = FailureKind::InternalInvariant;
                result.failureDetail = err.what();
                failed = "invariant";
            }
            if (failed == nullptr) {
                ii_scope.arg("outcome", "success");
                return;
            }
            ii_scope.arg("outcome", failed);
            traceDecision(options.trace, "ii_escalate",
                          {{"ii", std::to_string(ii)}, {"reason", failed}});
        }
    }

    /**
     * Schedules an annotated loop at ii and verifies the schedule.
     * @return nullptr when the schedule stands, else why the II
     * failed ("sched_fail" or "verifier_reject").
     */
    const char *
    scheduleAndVerify(const AnnotatedLoop &loop, int ii,
                      LoopContext &loopCtx, Schedule &schedule)
    {
        const Stopwatch sched_watch;
        bool scheduled = false;
        {
            TraceScope phase(options.trace, TraceLevel::Phase, "schedule",
                             "phase");
            scheduled =
                scheduler->schedule(loop, model, ii, schedule, &loopCtx);
        }
        result.phaseMs.scheduleMs += sched_watch.elapsedMs();
        if (scheduled && faults &&
            faults->trip(FaultSite::SchedulerSlotDeny)) {
            // Injected: pretend the scheduler found no slot.
            scheduled = false;
        }
        if (!scheduled) {
            result.failure = FailureKind::IiExhausted;
            result.failureDetail =
                detail::concat("no schedule found at II ", ii);
            return "sched_fail";
        }
        if (!options.verify)
            return nullptr;
        const Stopwatch verify_watch;
        std::string why;
        bool verified = false;
        {
            TraceScope phase(options.trace, TraceLevel::Phase, "verify",
                             "phase");
            verified = verifySchedule(loop, model, schedule, &why);
        }
        result.phaseMs.verifyMs += verify_watch.elapsedMs();
        if (verified)
            return nullptr;
        ++result.verifierRejects;
        result.failure = FailureKind::VerifierReject;
        result.failureDetail =
            detail::concat("verifier rejected II ", ii, ": ", why);
        return "verifier_reject";
    }

    /**
     * The exact ladder (backends Exact and Race): ascending per-II SAT
     * decisions over [first, last] with deterministic conflict budgets
     * (exact/exact.hh). The first SAT answer is accepted, and is
     * optimal within the range since every lower II carries an UNSAT
     * certificate. @return true on acceptance; otherwise
     * result.exact.outcome says why -- Unsat when the whole range is
     * certified infeasible, Timeout/Unsupported when the ladder died
     * early.
     */
    bool
    exactLadder(int first, int last)
    {
        int probes_left = options.exact.maxProbes > 0
                              ? options.exact.maxProbes
                              : std::numeric_limits<int>::max();
        for (int ii = first; ii <= last; ++ii) {
            if (deadline.expired()) {
                result.exact.outcome = ExactOutcome::Timeout;
                result.exact.detail = "compile_deadline";
                return false;
            }
            if (probes_left-- <= 0) {
                result.exact.outcome = ExactOutcome::Timeout;
                result.exact.detail = "probe_limit";
                return false;
            }
            const Stopwatch probe_watch;
            ExactDecision decision =
                exactDecideAtIi(graph, model, ii, options.exact);
            ++result.exact.probes;
            result.exact.conflicts += decision.conflicts;
            result.exact.decisions += decision.decisions;
            result.exact.propagations += decision.propagations;
            result.exact.solveMs += probe_watch.elapsedMs();
            traceDecision(options.trace, "exact_probe",
                          {{"ii", std::to_string(ii)},
                           {"verdict", exactVerdictName(decision.verdict)}});
            if (decision.verdict == ExactVerdict::Sat) {
                result.exact.outcome = ExactOutcome::Sat;
                result.exact.exactIi = ii;
                acceptSchedule(result, std::move(decision.loop),
                               std::move(decision.schedule), ii,
                               DegradeLevel::None);
                return true;
            }
            if (decision.verdict == ExactVerdict::Unsat)
                continue; // certified infeasible; try the next II
            result.exact.outcome = decision.verdict == ExactVerdict::Budget
                                       ? ExactOutcome::Timeout
                                       : ExactOutcome::Unsupported;
            result.exact.detail = decision.detail;
            return false;
        }
        // Every II in the range carries an UNSAT certificate.
        result.exact.outcome = ExactOutcome::Unsat;
        return false;
    }

    /** Exact mode: the exact ladder *is* the II search. */
    void
    exactSearch()
    {
        if (exactLadder(result.mii.mii, limit))
            return;
        if (result.exact.outcome == ExactOutcome::Timeout) {
            result.failure = FailureKind::Timeout;
            result.failureDetail =
                "exact backend budget exhausted: " + result.exact.detail;
        } else if (result.exact.outcome == ExactOutcome::Unsat) {
            result.failure = FailureKind::IiExhausted;
            result.failureDetail =
                detail::concat("exact backend: UNSAT at every II in [",
                               result.mii.mii, ", ", limit, "]");
        } else {
            result.failure = FailureKind::IiExhausted;
            result.failureDetail =
                "exact backend unsupported: " + result.exact.detail;
        }
    }

    /**
     * Race mode, after the heuristic sweep. When the heuristic
     * answered, the exact ladder probes every lower II: SAT tightens
     * the result (the decoded schedule replaces the heuristic one),
     * and an unbroken run of UNSAT certificates -- including the
     * empty range when the heuristic already sits at MII -- certifies
     * it optimal. When it found nothing, the ladder searches the full
     * window before the degradation ladder (portfolio rescue).
     */
    void
    raceArm()
    {
        if (!result.success) {
            exactLadder(result.mii.mii, limit);
            return;
        }
        result.exact.heuristicIi = result.ii;
        if (exactLadder(result.mii.mii, result.exact.heuristicIi - 1)) {
            result.exact.tightened = true;
            traceDecision(
                options.trace, "exact_tightened",
                {{"heuristic_ii", std::to_string(result.exact.heuristicIi)},
                 {"exact_ii", std::to_string(result.exact.exactIi)}});
        } else if (result.exact.outcome == ExactOutcome::Unsat) {
            result.exact.certified = true;
            traceDecision(options.trace, "exact_certified",
                          {{"ii", std::to_string(result.ii)}});
        }
    }

    /**
     * Degradation rung 1: exhaustive assignment for small loops. It
     * runs injection-free on purpose -- faults model the primary
     * path; the ladder is the recovery mechanism under test -- and
     * counts no attempts. A partition that is count-feasible but not
     * schedulable moves on to the next II; a loop too large to
     * enumerate ends the rung.
     */
    void
    exhaustiveRung()
    {
        traceDecision(options.trace, "degrade_rung",
                      {{"rung", "exhaustive_assign"}});
        rung.emplace(options.trace, TraceLevel::Phase, "exhaustive_assign",
                     "pipeline");
        for (int ii = result.mii.mii; ii <= limit; ++ii) {
            if (deadline.expired()) {
                result.failure = FailureKind::Timeout;
                result.failureDetail = detail::concat(
                    "time budget expired in the exhaustive fallback at II ",
                    ii);
                return;
            }
            try {
                const ExhaustivePartition partition =
                    exhaustiveAssign(graph, model, ii);
                if (partition.verdict == ExhaustiveVerdict::TooLarge)
                    return;
                if (partition.verdict != ExhaustiveVerdict::Feasible)
                    continue;
                AnnotatedLoop loop =
                    spliceCopies(graph, partition.clusterOf, model);
                Schedule schedule;
                if (!scheduler->schedule(loop, model, ii, schedule))
                    continue;
                std::string why;
                if (options.verify &&
                    !verifySchedule(loop, model, schedule, &why)) {
                    ++result.verifierRejects;
                    continue;
                }
                acceptSchedule(result, std::move(loop), std::move(schedule),
                               ii, DegradeLevel::ExhaustiveAssign);
                return;
            } catch (const InternalError &err) {
                ++result.invariantRecoveries;
                result.failure = FailureKind::InternalInvariant;
                result.failureDetail = err.what();
            }
        }
    }

    /**
     * Degradation rung 2: everything on cluster 0, fully serialized.
     * Cheap enough to run even after a timeout -- recovering a
     * classified-failure compile beats reporting it.
     */
    void
    singleClusterRung()
    {
        // A failed exhaustive rung's scope ends before this rung starts.
        rung.reset();
        traceDecision(options.trace, "degrade_rung",
                      {{"rung", "single_cluster"}});
        rung.emplace(options.trace, TraceLevel::Phase, "single_cluster",
                     "pipeline");
        std::optional<DegradedCompile> degraded =
            degradeToSingleCluster(graph, model);
        if (!degraded)
            return;
        std::string why;
        if (options.verify && !verifySchedule(degraded->loop, model,
                                              degraded->schedule, &why)) {
            ++result.verifierRejects;
            result.failure = FailureKind::VerifierReject;
            result.failureDetail =
                "verifier rejected the single-cluster fallback: " + why;
            return;
        }
        const int ii = degraded->schedule.ii;
        acceptSchedule(result, std::move(degraded->loop),
                       std::move(degraded->schedule), ii,
                       DegradeLevel::SingleCluster);
    }

    /**
     * The exit stage: folds the counters, stamps the fault trips, the
     * total time and the compile scope's args, and stores the finished
     * compile into the cache. store() itself refuses timed-out
     * results, so only deterministic outcomes persist.
     */
    void
    finish()
    {
        result.ctxHits += ctx.hits();
        result.ctxMisses += ctx.misses();
        result.mrtWordScans += scheduler->wordScans();
        if (faults)
            result.faultTrips = faults->totalTrips() - faultBase;
        result.phaseMs.totalMs = totalWatch.elapsedMs();
        if (result.faultTrips > 0) {
            traceDecision(options.trace, "fault_trips",
                          {{"count", std::to_string(result.faultTrips)}});
        }
        scope.arg("success", result.success ? "true" : "false");
        scope.arg("ii", std::to_string(result.ii));
        scope.arg("degraded", degradeLevelName(result.degraded));
        if (!result.success)
            scope.arg("failure", failureKindName(result.failure));
        if (cacheKey)
            options.cache->store(*cacheKey, graph, machine, result);
    }

    const Dfg &graph;
    const MachineDesc &machine;
    const CompileOptions &options;
    CompileResult &result;
    const std::optional<CacheKey> cacheKey;
    const Stopwatch totalWatch;
    TraceScope scope;

    /** The context every II of this compile shares. */
    LoopContext ctx;
    const ResourceModel model;
    FaultInjector *const faults;
    const long faultBase;
    const std::unique_ptr<ModuloScheduler> scheduler;
    const Deadline deadline{options.timeBudgetMs};
    int limit = 0;

    /** Whether the II sweep died on the deadline. */
    bool timedOut = false;

    /** The open rung's scope; it spans finish(), like the compile's. */
    std::optional<TraceScope> rung;
};

} // namespace

CompileResult
compileClustered(const Dfg &graph, const MachineDesc &machine,
                 const CompileOptions &options)
{
    CompileResult result;
    std::optional<CacheKey> key;
    if (!admit(graph, machine, options, /*clustered=*/true, result, key))
        return result;
    Compile c("compile_clustered", graph, graph, machine,
              machine.unifiedEquivalent(), options, result, std::move(key));

    AssignOptions assign_options = options.assign;
    assign_options.faults = c.faults;
    assign_options.trace = options.trace;
    const ClusterAssigner assigner(c.model, assign_options);

    if (options.backend == CompileBackend::Exact) {
        c.exactSearch();
    } else {
        // One II attempt of the Figure 5 pipeline: assign, then
        // schedule and verify.
        c.sweep([&](int ii) -> const char * {
            const Stopwatch assign_watch;
            AssignResult assignment;
            {
                TraceScope phase(options.trace, TraceLevel::Phase,
                                 "assign", "phase");
                assignment = assigner.run(graph, ii, &c.ctx);
            }
            result.phaseMs.assignMs += assign_watch.elapsedMs();
            result.phaseMs.orderMs += assignment.orderMillis;
            result.phaseMs.routeMs += assignment.routeMillis;
            result.evictions += assignment.evictions;
            result.invariantRecoveries += assignment.invariantFailures;
            result.mrtWordScans += assignment.wordScans;
            if (!assignment.success) {
                ++result.assignRetries;
                if (assignment.failure != FailureKind::None) {
                    result.failure = assignment.failure;
                    result.failureDetail = assignment.detail;
                } else {
                    result.failure = FailureKind::IiExhausted;
                    result.failureDetail =
                        detail::concat("assignment infeasible at II ", ii);
                }
                return "assign_fail";
            }
            // The scheduler sees the annotated graph (copies and all),
            // which changes per II, so its context is per attempt: it
            // still pools the analyses shared by the feasibility
            // check, timing, order and requests.
            LoopContext sched_ctx(assignment.loop.graph);
            Schedule schedule;
            const char *failed =
                c.scheduleAndVerify(assignment.loop, ii, sched_ctx, schedule);
            result.ctxHits += sched_ctx.hits();
            result.ctxMisses += sched_ctx.misses();
            if (failed == nullptr) {
                acceptSchedule(result, std::move(assignment.loop),
                               std::move(schedule), ii, DegradeLevel::None);
            }
            return failed;
        });
    }
    if (options.backend == CompileBackend::Race)
        c.raceArm();
    // The degradation ladder. The exhaustive rung never follows a
    // sweep that ran out of time; the single-cluster rung always may.
    if (!result.success && options.fallback) {
        if (!c.timedOut && machine.numClusters() > 1 &&
            graph.numNodes() <= options.exhaustiveFallbackNodes)
            c.exhaustiveRung();
        if (!result.success)
            c.singleClusterRung();
    }
    c.finish();
    return result;
}

CompileResult
compileUnified(const Dfg &graph, const MachineDesc &machine,
               const CompileOptions &options)
{
    cams_assert(machine.numClusters() == 1,
                "compileUnified needs a single-cluster machine");
    CompileResult result;
    std::optional<CacheKey> key;
    if (!admit(graph, machine, options, /*clustered=*/false, result, key))
        return result;
    // The context lives on the annotated loop's graph (a verbatim
    // clone of the input), so one context serves both the MII and
    // every scheduler call.
    const AnnotatedLoop loop = unifiedLoop(graph);
    Compile c("compile_unified", graph, loop.graph, machine, machine,
              options, result, std::move(key));

    c.sweep([&](int ii) -> const char * {
        Schedule schedule;
        const char *failed = c.scheduleAndVerify(loop, ii, c.ctx, schedule);
        if (failed == nullptr) {
            acceptSchedule(result, loop, std::move(schedule), ii,
                           DegradeLevel::None);
        }
        return failed;
    });
    if (!result.success && options.fallback)
        c.singleClusterRung();
    c.finish();
    return result;
}

} // namespace cams
