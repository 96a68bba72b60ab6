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
 * True when this compile may talk to the cache at all. Fault
 * injection makes outcomes intentionally nondeterministic, so those
 * compiles bypass the cache in both directions.
 */
bool
cacheEligible(const CompileOptions &options)
{
    if (options.cache == nullptr || !options.cache->enabled())
        return false;
    return !(options.faults && options.faults->config().any());
}

/**
 * Probes the cache for a full-result hit; stamps the probe flags and
 * the cache_probe decision instant either way. @return true when the
 * result was served.
 */
bool
probeCache(CompileCache &cache, const CacheKey &key, const Dfg &graph,
           const MachineDesc &machine, const CompileOptions &options,
           CompileResult &result)
{
    if (cache.lookup(key, graph, machine, result)) {
        // lookup overwrote the whole result with the stored image
        // (whose transient flags are false); restamp them.
        result.cacheProbed = true;
        result.fromCache = true;
        traceDecision(options.trace, "cache_probe",
                      {{"outcome", "hit"},
                       {"ii", std::to_string(result.ii)}});
        return true;
    }
    result.cacheProbed = true;
    traceDecision(options.trace, "cache_probe", {{"outcome", "miss"}});
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
 * The II-escalation engine shared by the driver's three search loops
 * (the primary clustered search, the exhaustive fallback rung, and
 * the unified search), which used to be three near-identical copies.
 * It owns the per-loop LoopContext every probe shares, walks II
 * upward calling the probe at each step, and centralizes the
 * per-attempt bookkeeping: deadline checks, attempt counting, the
 * per-II trace scope with its outcome arg, escalate/timeout decision
 * instants, and InternalError recovery. The Policy flags select the
 * exact original behavior of each call site.
 */
class IiEscalator
{
  public:
    /** What one II probe decided. */
    enum class Outcome
    {
        Accept, ///< schedule accepted into the result; stop the sweep
        Retry,  ///< this II failed; escalate to II + 1
        Stop,   ///< this II failed and larger IIs cannot help
    };

    /** Per-call-site behavior differences. */
    struct Policy
    {
        /** Bump result.attempts / finalIiTried per probed II. */
        bool countAttempts = false;

        /** Open a per-II "ii_attempt" trace scope. */
        bool traceIis = false;

        /** Emit "ii_escalate" decision instants on failed IIs. */
        bool decisionEscalates = false;

        /** Recover a probe's InternalError as a failed II. */
        bool catchInvariant = false;

        /** Classify a deadline expiry after the sweep ("after N II
         *  attempts"), plus the "timeout" instant if traceTimeout. */
        bool summaryTimeout = false;
        bool traceTimeout = false;

        /** Non-null: classify the expiry inline instead, as "time
         *  budget expired in <where> at II <ii>". */
        const char *timeoutWhere = nullptr;
    };

    IiEscalator(const Dfg &graph, const CompileOptions &options,
                CompileResult &result)
        : options_(options), result_(result), ctx_(graph)
    {
    }

    /** The context every probe of this compile shares. */
    LoopContext &context() { return ctx_; }

    /** Whether any sweep so far died on the deadline. */
    bool timedOut() const { return timedOut_; }

    /** Folds the owned context's counters into the result. */
    void foldCounters()
    {
        result_.ctxHits += ctx_.hits();
        result_.ctxMisses += ctx_.misses();
    }

    /**
     * Probes II = first..limit until the probe accepts, a deadline
     * check fails, or a probe reports Stop. The probe is called as
     * probe(ii, escalate) where escalate(reason) records a failed
     * II's outcome. @return true when an II was accepted.
     */
    template <typename Probe>
    bool sweep(int first, int limit, const Deadline &deadline,
               const Policy &policy, Probe &&probe)
    {
        bool timed_out = false;
        for (int ii = first; ii <= limit; ++ii) {
            if (deadline.expired()) {
                timed_out = true;
                if (policy.timeoutWhere != nullptr) {
                    result_.failure = FailureKind::Timeout;
                    result_.failureDetail = detail::concat(
                        "time budget expired in ", policy.timeoutWhere,
                        " at II ", ii);
                }
                break;
            }
            if (policy.countAttempts) {
                ++result_.attempts;
                result_.finalIiTried = ii;
            }
            std::optional<TraceScope> ii_scope;
            if (policy.traceIis) {
                ii_scope.emplace(options_.trace, TraceLevel::Phase,
                                 "ii_attempt", "pipeline");
                ii_scope->arg("ii", std::to_string(ii));
            }
            auto escalate = [&](const char *reason) {
                if (ii_scope)
                    ii_scope->arg("outcome", reason);
                if (policy.decisionEscalates) {
                    traceDecision(options_.trace, "ii_escalate",
                                  {{"ii", std::to_string(ii)},
                                   {"reason", reason}});
                }
            };
            Outcome outcome = Outcome::Retry;
            if (policy.catchInvariant) {
                try {
                    outcome = probe(ii, escalate);
                } catch (const InternalError &err) {
                    // A cams_check fired outside the assigner's own
                    // recovery: charge this II and move on.
                    ++result_.invariantRecoveries;
                    result_.failure = FailureKind::InternalInvariant;
                    result_.failureDetail = err.what();
                    escalate("invariant");
                }
            } else {
                outcome = probe(ii, escalate);
            }
            if (outcome == Outcome::Accept) {
                if (ii_scope)
                    ii_scope->arg("outcome", "success");
                return true;
            }
            if (outcome == Outcome::Stop)
                break;
        }
        timedOut_ = timedOut_ || timed_out;
        if (timed_out && policy.summaryTimeout) {
            result_.failure = FailureKind::Timeout;
            result_.failureDetail = detail::concat(
                "time budget of ", options_.timeBudgetMs,
                " ms expired after ", result_.attempts,
                " II attempts");
            if (policy.traceTimeout) {
                traceDecision(
                    options_.trace, "timeout",
                    {{"attempts", std::to_string(result_.attempts)},
                     {"budget_ms",
                      std::to_string(options_.timeBudgetMs)}});
            }
        }
        return false;
    }

  private:
    const CompileOptions &options_;
    CompileResult &result_;
    LoopContext ctx_;
    bool timedOut_ = false;
};

} // namespace

CompileResult
compileClustered(const Dfg &graph, const MachineDesc &machine,
                 const CompileOptions &options)
{
    CompileResult result;
    if (!compilablePrecondition(graph, machine, result))
        return result;

    const bool cache_on = cacheEligible(options);
    CacheKey cache_key;
    if (cache_on) {
        cache_key =
            makeCacheKey(graph, machine, options, /*clustered=*/true);
        if (probeCache(*options.cache, cache_key, graph, machine,
                       options, result))
            return result;
    }

    const Stopwatch total_watch;
    TraceScope compile_scope(options.trace, TraceLevel::Phase,
                             "compile_clustered", "pipeline");
    compile_scope.arg("machine", machine.name);

    IiEscalator escalator(graph, options, result);
    LoopContext &ctx = escalator.context();

    const MachineDesc unified = machine.unifiedEquivalent();
    result.mii = computeMii(graph, unified, ctx.recMii());

    const ResourceModel model(machine);
    FaultInjector *faults = options.faults.get();
    const long fault_base = faults ? faults->totalTrips() : 0;
    const Deadline deadline(options.timeBudgetMs);

    AssignOptions assign_options = options.assign;
    assign_options.faults = faults;
    assign_options.trace = options.trace;
    const ClusterAssigner assigner(model, assign_options);
    const auto scheduler = makeScheduler(options.scheduler);
    scheduler->setTrace(options.trace);
    const int limit = result.mii.mii * 4 + options.iiSlack;

    // Stamps everything that must be correct on every exit path, and
    // publishes the finished compile into the cache. store() itself
    // refuses served and timed-out results, so only deterministic
    // outcomes persist.
    auto finish = [&]() {
        escalator.foldCounters();
        result.mrtWordScans += scheduler->wordScans();
        if (faults)
            result.faultTrips = faults->totalTrips() - fault_base;
        result.phaseMs.totalMs = total_watch.elapsedMs();
        if (result.faultTrips > 0) {
            traceDecision(
                options.trace, "fault_trips",
                {{"count", std::to_string(result.faultTrips)}});
        }
        compile_scope.arg("success",
                          result.success ? "true" : "false");
        compile_scope.arg("ii", std::to_string(result.ii));
        compile_scope.arg("degraded",
                          degradeLevelName(result.degraded));
        if (!result.success) {
            compile_scope.arg("failure",
                              failureKindName(result.failure));
        }
        if (cache_on)
            options.cache->store(cache_key, graph, machine, result);
    };

    // One II attempt of the Figure 5 pipeline: assign, schedule,
    // verify.
    auto attemptIi = [&](int ii, auto &&escalate) -> IiEscalator::Outcome {
            const Stopwatch assign_watch;
            AssignResult assignment;
            {
                TraceScope scope(options.trace, TraceLevel::Phase,
                                 "assign", "phase");
                assignment = assigner.run(graph, ii, &ctx);
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
                    result.failureDetail = detail::concat(
                        "assignment infeasible at II ", ii);
                }
                escalate("assign_fail");
                return IiEscalator::Outcome::Retry;
            }
            // The scheduler sees the annotated graph (copies and
            // all), which changes per II, so its context is per
            // attempt: it still pools the analyses shared by the
            // feasibility check, timing, order and requests.
            LoopContext sched_ctx(assignment.loop.graph);
            Schedule schedule;
            const Stopwatch sched_watch;
            bool scheduled;
            {
                TraceScope scope(options.trace, TraceLevel::Phase,
                                 "schedule", "phase");
                scheduled = scheduler->schedule(assignment.loop, model,
                                                ii, schedule, &sched_ctx);
            }
            result.phaseMs.scheduleMs += sched_watch.elapsedMs();
            result.ctxHits += sched_ctx.hits();
            result.ctxMisses += sched_ctx.misses();
            if (scheduled && faults &&
                faults->trip(FaultSite::SchedulerSlotDeny)) {
                // Injected: pretend the scheduler found no slot.
                scheduled = false;
            }
            if (!scheduled) {
                result.failure = FailureKind::IiExhausted;
                result.failureDetail =
                    detail::concat("no schedule found at II ", ii);
                escalate("sched_fail");
                return IiEscalator::Outcome::Retry;
            }
            if (options.verify) {
                const Stopwatch verify_watch;
                std::string why;
                bool verified;
                {
                    TraceScope scope(options.trace, TraceLevel::Phase,
                                     "verify", "phase");
                    verified = verifySchedule(assignment.loop, model,
                                              schedule, &why);
                }
                result.phaseMs.verifyMs += verify_watch.elapsedMs();
                if (!verified) {
                    ++result.verifierRejects;
                    result.failure = FailureKind::VerifierReject;
                    result.failureDetail = detail::concat(
                        "verifier rejected II ", ii, ": ", why);
                    escalate("verifier_reject");
                    return IiEscalator::Outcome::Retry;
                }
            }
            acceptSchedule(result, std::move(assignment.loop),
                           std::move(schedule), ii,
                           DegradeLevel::None);
            return IiEscalator::Outcome::Accept;
    };

    // ---- The exact arm (backends Exact and Race): per-II SAT
    // decisions with deterministic conflict budgets (exact/exact.hh).
    auto exactProbe = [&](int ii) {
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
                       {"verdict",
                        exactVerdictName(decision.verdict)}});
        return decision;
    };

    // Ascending decision ladder over [first, last]: the first SAT
    // answer is accepted (and is optimal within the range, since
    // every lower II carries an UNSAT certificate). Returns true on
    // acceptance; otherwise result.exact.outcome says why -- Unsat
    // when the whole range is certified infeasible, Timeout/
    // Unsupported when the ladder died early.
    auto exactSearch = [&](int first, int last) -> bool {
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
            ExactDecision decision = exactProbe(ii);
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
            result.exact.outcome =
                decision.verdict == ExactVerdict::Budget
                    ? ExactOutcome::Timeout
                    : ExactOutcome::Unsupported;
            result.exact.detail = decision.detail;
            return false;
        }
        // Every II in the range carries an UNSAT certificate.
        result.exact.outcome = ExactOutcome::Unsat;
        return false;
    };

    // The primary Figure 5 search. Every way an II can die updates
    // the running classification, so a final failure reports the last
    // (deepest) cause rather than a generic "gave up".
    result.failure = FailureKind::IiExhausted;
    result.failureDetail = detail::concat(
        "empty II search window [", result.mii.mii, ", ", limit, "]");

    if (options.backend == CompileBackend::Exact) {
        // Pure exact mode: the SAT ladder *is* the II search.
        if (exactSearch(result.mii.mii, limit)) {
            finish();
            return result;
        }
        if (result.exact.outcome == ExactOutcome::Timeout) {
            result.failure = FailureKind::Timeout;
            result.failureDetail =
                "exact backend budget exhausted: " +
                result.exact.detail;
        } else if (result.exact.outcome == ExactOutcome::Unsat) {
            result.failure = FailureKind::IiExhausted;
            result.failureDetail = detail::concat(
                "exact backend: UNSAT at every II in [",
                result.mii.mii, ", ", limit, "]");
        } else {
            result.failure = FailureKind::IiExhausted;
            result.failureDetail = "exact backend unsupported: " +
                                   result.exact.detail;
        }
        if (!options.fallback) {
            finish();
            return result;
        }
        // Fall through to the degradation ladder below.
    }

    if (options.backend != CompileBackend::Exact) {
        IiEscalator::Policy primary;
        primary.countAttempts = true;
        primary.traceIis = true;
        primary.decisionEscalates = true;
        primary.catchInvariant = true;
        primary.summaryTimeout = true;
        primary.traceTimeout = true;

        escalator.sweep(result.mii.mii, limit, deadline, primary,
                        attemptIi);
    }

    if (options.backend == CompileBackend::Race) {
        if (result.success && result.degraded == DegradeLevel::None) {
            // The heuristic answered; the exact arm now probes every
            // lower II. SAT tightens the result (the decoded schedule
            // replaces the heuristic one); an unbroken run of UNSAT
            // certificates -- including the empty range when the
            // heuristic already sits at MII -- certifies it optimal.
            result.exact.heuristicIi = result.ii;
            if (exactSearch(result.mii.mii,
                            result.exact.heuristicIi - 1)) {
                result.exact.tightened = true;
                traceDecision(
                    options.trace, "exact_tightened",
                    {{"heuristic_ii",
                      std::to_string(result.exact.heuristicIi)},
                     {"exact_ii",
                      std::to_string(result.exact.exactIi)}});
            } else if (result.exact.outcome == ExactOutcome::Unsat) {
                result.exact.certified = true;
                traceDecision(options.trace, "exact_certified",
                              {{"ii", std::to_string(result.ii)}});
            }
        } else if (!result.success) {
            // Portfolio rescue: the cascade found nothing, so let the
            // exact arm search the full window before the ladder.
            exactSearch(result.mii.mii, limit);
        }
    }

    if (result.success || !options.fallback) {
        finish();
        return result;
    }

    // Degradation ladder, rung 1: exhaustive assignment for small
    // loops. Runs injection-free on purpose -- faults model the
    // primary path; the ladder is the recovery mechanism under test.
    if (!escalator.timedOut() && machine.numClusters() > 1 &&
        graph.numNodes() <= options.exhaustiveFallbackNodes) {
        traceDecision(options.trace, "degrade_rung",
                      {{"rung", "exhaustive_assign"}});
        TraceScope rung_scope(options.trace, TraceLevel::Phase,
                              "exhaustive_assign", "pipeline");
        IiEscalator::Policy rung;
        rung.catchInvariant = true;
        rung.timeoutWhere = "the exhaustive fallback";
        escalator.sweep(
            result.mii.mii, limit, deadline, rung,
            [&](int ii, auto &&) -> IiEscalator::Outcome {
                const ExhaustivePartition partition =
                    exhaustiveAssign(graph, model, ii);
                if (partition.verdict == ExhaustiveVerdict::TooLarge)
                    return IiEscalator::Outcome::Stop;
                if (partition.verdict != ExhaustiveVerdict::Feasible)
                    return IiEscalator::Outcome::Retry;
                AnnotatedLoop loop = annotatePartition(
                    graph, partition.clusterOf, machine);
                Schedule schedule;
                if (!scheduler->schedule(loop, model, ii, schedule)) {
                    // count-feasible but not schedulable
                    return IiEscalator::Outcome::Retry;
                }
                if (options.verify) {
                    std::string why;
                    if (!verifySchedule(loop, model, schedule, &why)) {
                        ++result.verifierRejects;
                        return IiEscalator::Outcome::Retry;
                    }
                }
                acceptSchedule(result, std::move(loop),
                               std::move(schedule), ii,
                               DegradeLevel::ExhaustiveAssign);
                return IiEscalator::Outcome::Accept;
            });
        if (result.success) {
            finish();
            return result;
        }
    }

    // Rung 2: single cluster, fully serialized. Cheap enough to run
    // even after a timeout -- recovering a classified-failure compile
    // beats reporting it.
    traceDecision(options.trace, "degrade_rung",
                  {{"rung", "single_cluster"}});
    TraceScope rung_scope(options.trace, TraceLevel::Phase,
                          "single_cluster", "pipeline");
    if (auto degraded = degradeToSingleCluster(graph, model)) {
        std::string why;
        if (!options.verify ||
            verifySchedule(degraded->loop, model, degraded->schedule,
                           &why)) {
            const int ii = degraded->schedule.ii;
            acceptSchedule(result, std::move(degraded->loop),
                           std::move(degraded->schedule), ii,
                           DegradeLevel::SingleCluster);
        } else {
            ++result.verifierRejects;
            result.failure = FailureKind::VerifierReject;
            result.failureDetail =
                "verifier rejected the single-cluster fallback: " +
                why;
        }
    }
    finish();
    return result;
}

CompileResult
compileUnified(const Dfg &graph, const MachineDesc &machine,
               const CompileOptions &options)
{
    cams_assert(machine.numClusters() == 1,
                "compileUnified needs a single-cluster machine");
    CompileResult result;
    if (!compilablePrecondition(graph, machine, result))
        return result;

    const bool cache_on = cacheEligible(options);
    CacheKey cache_key;
    if (cache_on) {
        cache_key = makeCacheKey(graph, machine, options,
                                 /*clustered=*/false);
        if (probeCache(*options.cache, cache_key, graph, machine,
                       options, result))
            return result;
    }

    const Stopwatch total_watch;
    TraceScope compile_scope(options.trace, TraceLevel::Phase,
                             "compile_unified", "pipeline");
    compile_scope.arg("machine", machine.name);

    // The context lives on the annotated loop's graph (a verbatim
    // clone of the input), so one context serves both the MII and
    // every scheduler call.
    const AnnotatedLoop loop = unifiedLoop(graph);
    IiEscalator escalator(loop.graph, options, result);
    LoopContext &ctx = escalator.context();
    result.mii = computeMii(graph, machine, ctx.recMii());

    const ResourceModel model(machine);
    FaultInjector *faults = options.faults.get();
    const long fault_base = faults ? faults->totalTrips() : 0;
    const Deadline deadline(options.timeBudgetMs);
    const auto scheduler = makeScheduler(options.scheduler);
    scheduler->setTrace(options.trace);
    const int limit = result.mii.mii * 4 + options.iiSlack;

    auto finish = [&]() {
        escalator.foldCounters();
        result.mrtWordScans += scheduler->wordScans();
        if (faults)
            result.faultTrips = faults->totalTrips() - fault_base;
        result.phaseMs.totalMs = total_watch.elapsedMs();
        compile_scope.arg("success",
                          result.success ? "true" : "false");
        compile_scope.arg("ii", std::to_string(result.ii));
        compile_scope.arg("degraded",
                          degradeLevelName(result.degraded));
        if (cache_on)
            options.cache->store(cache_key, graph, machine, result);
    };

    result.failure = FailureKind::IiExhausted;
    result.failureDetail = detail::concat(
        "empty II search window [", result.mii.mii, ", ", limit, "]");

    IiEscalator::Policy policy;
    policy.countAttempts = true;
    policy.traceIis = true;
    policy.summaryTimeout = true;

    escalator.sweep(
        result.mii.mii, limit, deadline, policy,
        [&](int ii, auto &&escalate) -> IiEscalator::Outcome {
            Schedule schedule;
            const Stopwatch sched_watch;
            bool scheduled;
            {
                TraceScope scope(options.trace, TraceLevel::Phase,
                                 "schedule", "phase");
                scheduled =
                    scheduler->schedule(loop, model, ii, schedule, &ctx);
            }
            result.phaseMs.scheduleMs += sched_watch.elapsedMs();
            if (scheduled && faults &&
                faults->trip(FaultSite::SchedulerSlotDeny)) {
                scheduled = false;
            }
            if (!scheduled) {
                result.failure = FailureKind::IiExhausted;
                result.failureDetail =
                    detail::concat("no schedule found at II ", ii);
                escalate("sched_fail");
                return IiEscalator::Outcome::Retry;
            }
            if (options.verify) {
                const Stopwatch verify_watch;
                std::string why;
                bool verified;
                {
                    TraceScope scope(options.trace, TraceLevel::Phase,
                                     "verify", "phase");
                    verified =
                        verifySchedule(loop, model, schedule, &why);
                }
                result.phaseMs.verifyMs += verify_watch.elapsedMs();
                if (!verified) {
                    ++result.verifierRejects;
                    result.failure = FailureKind::VerifierReject;
                    result.failureDetail = detail::concat(
                        "verifier rejected II ", ii, ": ", why);
                    escalate("verifier_reject");
                    return IiEscalator::Outcome::Retry;
                }
            }
            acceptSchedule(result, loop, std::move(schedule), ii,
                           DegradeLevel::None);
            return IiEscalator::Outcome::Accept;
        });

    if (!result.success && options.fallback) {
        traceDecision(options.trace, "degrade_rung",
                      {{"rung", "single_cluster"}});
        if (auto degraded = degradeToSingleCluster(graph, model)) {
            std::string why;
            if (!options.verify ||
                verifySchedule(degraded->loop, model,
                               degraded->schedule, &why)) {
                const int ii = degraded->schedule.ii;
                acceptSchedule(result, std::move(degraded->loop),
                               std::move(degraded->schedule), ii,
                               DegradeLevel::SingleCluster);
            } else {
                ++result.verifierRejects;
                result.failure = FailureKind::VerifierReject;
                result.failureDetail =
                    "verifier rejected the single-cluster fallback: " +
                    why;
            }
        }
    }
    finish();
    return result;
}

} // namespace cams
