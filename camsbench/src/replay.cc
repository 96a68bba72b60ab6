#include "replay.hh"

#include <functional>
#include <limits>
#include <optional>

#include "assign/exhaustive.hh"
#include "exact/encode.hh"
#include "pipeline/degrade.hh"
#include "pipeline/context.hh"
#include "sched/verifier.hh"
#include "support/logging.hh"

namespace camsbench
{

using namespace cams;

namespace
{

/** Share of traced root-span time the named layers must account for. */
constexpr double minCoverage = 0.75;

double
nsToMs(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** One probe of exactDecideAtIi, span by span. */
ExactDecision
replayProbe(const Dfg &graph, const ResourceModel &model, int ii,
            const ExactOptions &options, Tracer &tracer,
            LayerTally &tally)
{
    SpanScope probe(&tracer, "probe");
    ++tally.probes;
    ExactDecision out;
    if (graph.numNodes() > options.nodeLimit) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = "node_limit";
        return out;
    }
    ExactEncoder encoder(graph, model);
    std::string why;
    if (!encoder.supported(&why)) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = why;
        return out;
    }
    const int fast = encoder.fastHorizon(ii);
    const int sound = encoder.soundHorizon(ii);
    if (fast > options.horizonLimit) {
        out.verdict = ExactVerdict::Unsupported;
        out.detail = "horizon_limit";
        return out;
    }
    int horizon = fast;
    while (true) {
        SatSolver solver;
        bool encoded;
        {
            SpanScope span(&tracer, "encode");
            encoded = encoder.encode(ii, horizon, solver, &why);
        }
        if (!encoded) {
            // exactDecideAtIi reports an encode refusal as a budget
            // verdict; mirror it.
            out.verdict = ExactVerdict::Budget;
            out.detail = "budget";
            return out;
        }
        tally.vars += solver.numVars();
        tally.clauses += solver.numClauses();
        SatBudget budget;
        budget.maxConflicts = options.conflictBudget;
        budget.timeBudgetMs = options.timeBudgetMs;
        SatStatus status;
        {
            SpanScope span(&tracer, "solve");
            status = solver.solve(budget);
        }
        out.conflicts += solver.stats().conflicts;
        out.decisions += solver.stats().decisions;
        out.propagations += solver.stats().propagations;
        if (status == SatStatus::Sat) {
            {
                SpanScope span(&tracer, "decode");
                encoder.decode(solver, out.loop, out.schedule);
            }
            std::string reject;
            bool ok;
            {
                SpanScope span(&tracer, "verify");
                ok = out.loop.validate(model.machine(), &reject) &&
                     verifySchedule(out.loop, model, out.schedule,
                                    &reject);
            }
            if (!ok) {
                out.verdict = ExactVerdict::Budget;
                out.detail = "decode_reject: " + reject;
                return out;
            }
            out.verdict = ExactVerdict::Sat;
            return out;
        }
        if (status == SatStatus::Unknown) {
            out.verdict = ExactVerdict::Budget;
            out.detail = "budget";
            return out;
        }
        if (horizon >= sound) {
            out.verdict = ExactVerdict::Unsat;
            return out;
        }
        if (sound > options.horizonLimit) {
            out.verdict = ExactVerdict::Budget;
            out.detail = "horizon_capped";
            return out;
        }
        horizon = sound;
    }
}

void
accept(CompileResult &result, AnnotatedLoop loop, Schedule schedule,
       int ii, DegradeLevel level = DegradeLevel::None)
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

/** The driver's ascending exact ladder over [first, last]. */
bool
replayExactSearch(const Dfg &graph, const ResourceModel &model,
                  const CompileOptions &options, int first, int last,
                  CompileResult &result, Tracer &tracer,
                  LayerTally &tally)
{
    int probes_left = options.exact.maxProbes > 0
                          ? options.exact.maxProbes
                          : std::numeric_limits<int>::max();
    for (int ii = first; ii <= last; ++ii) {
        if (probes_left-- <= 0) {
            result.exact.outcome = ExactOutcome::Timeout;
            result.exact.detail = "probe_limit";
            return false;
        }
        const int64_t start = nowNs();
        ExactDecision decision =
            replayProbe(graph, model, ii, options.exact, tracer, tally);
        ++result.exact.probes;
        result.exact.conflicts += decision.conflicts;
        result.exact.decisions += decision.decisions;
        result.exact.propagations += decision.propagations;
        result.exact.solveMs += nsToMs(nowNs() - start);
        tally.conflicts += decision.conflicts;
        if (decision.verdict == ExactVerdict::Sat) {
            ++tally.probeSat;
            result.exact.outcome = ExactOutcome::Sat;
            result.exact.exactIi = ii;
            accept(result, std::move(decision.loop),
                   std::move(decision.schedule), ii);
            return true;
        }
        if (decision.verdict == ExactVerdict::Unsat) {
            ++tally.probeUnsat;
            continue;
        }
        result.exact.outcome = decision.verdict == ExactVerdict::Budget
                                   ? ExactOutcome::Timeout
                                   : ExactOutcome::Unsupported;
        result.exact.detail = decision.detail;
        return false;
    }
    result.exact.outcome = ExactOutcome::Unsat;
    return false;
}

/** Folds one result's exact-arm outcome into the tally. */
void
tallyExactOutcome(const CompileResult &result, LayerTally &tally)
{
    const ExactStats &exact = result.exact;
    if (exact.tightened)
        ++tally.tightened;
    if (exact.certified)
        ++(exact.probes > 0 ? tally.proved : tally.vacuous);
    if (exact.outcome == ExactOutcome::Timeout)
        ++tally.timeouts;
    if (exact.outcome == ExactOutcome::Unsupported)
        ++tally.unsupported;
}

/**
 * The driver's degradation ladder: exhaustive assignment for small
 * loops, then one serialized cluster. No spans: it is the driver's own
 * work.
 */
void
replayLadder(const Dfg &graph, const MachineDesc &machine,
             const ResourceModel &model, const CompileOptions &options,
             const ModuloScheduler &scheduler, int limit,
             CompileResult &result)
{
    if (machine.numClusters() > 1 &&
        graph.numNodes() <= options.exhaustiveFallbackNodes) {
        for (int ii = result.mii.mii; ii <= limit; ++ii) {
            try {
                const ExhaustivePartition partition =
                    exhaustiveAssign(graph, model, ii);
                if (partition.verdict == ExhaustiveVerdict::TooLarge)
                    break;
                if (partition.verdict != ExhaustiveVerdict::Feasible)
                    continue;
                AnnotatedLoop loop =
                    annotatePartition(graph, partition.clusterOf, machine);
                Schedule schedule;
                if (!scheduler.schedule(loop, model, ii, schedule))
                    continue;
                if (options.verify &&
                    !verifySchedule(loop, model, schedule)) {
                    ++result.verifierRejects;
                    continue;
                }
                accept(result, std::move(loop), std::move(schedule), ii,
                       DegradeLevel::ExhaustiveAssign);
                return;
            } catch (const InternalError &err) {
                ++result.invariantRecoveries;
                result.failure = FailureKind::InternalInvariant;
                result.failureDetail = err.what();
            }
        }
    }
    if (auto degraded = degradeToSingleCluster(graph, model)) {
        std::string why;
        if (!options.verify || verifySchedule(degraded->loop, model,
                                              degraded->schedule, &why)) {
            const int ii = degraded->schedule.ii;
            accept(result, std::move(degraded->loop),
                   std::move(degraded->schedule), ii,
                   DegradeLevel::SingleCluster);
        } else {
            ++result.verifierRejects;
            result.failure = FailureKind::VerifierReject;
            result.failureDetail =
                "verifier rejected the single-cluster fallback: " + why;
        }
    }
}

} // namespace

CompileResult
replayCompile(const Dfg &graph, const MachineDesc &machine,
              const CompileOptions &options, Tracer &tracer,
              LayerTally &tally)
{
    CompileResult result;
    SpanScope compile(&tracer, "compile");
    const int64_t start = nowNs();
    std::string why;
    if (!graph.wellFormed(&why)) {
        result.failure = FailureKind::InternalInvariant;
        result.failureDetail = "malformed input graph: " + why;
        return result;
    }
    for (const DfgNode &node : graph.nodes()) {
        if (node.op == Opcode::Copy || !machine.canExecute(node.op)) {
            result.failure = FailureKind::InternalInvariant;
            result.failureDetail = "not compilable";
            return result;
        }
    }

    LoopContext ctx(graph);
    const MachineDesc unified = machine.unifiedEquivalent();
    {
        SpanScope span(&tracer, "mii");
        result.mii = computeMii(graph, unified, ctx.recMii());
    }
    const ResourceModel model(machine);
    const ClusterAssigner assigner(model, options.assign);
    const auto scheduler = makeScheduler(options.scheduler);
    const int limit = result.mii.mii * 4 + options.iiSlack;
    result.failure = FailureKind::IiExhausted;

    bool accepted = false;
    for (int ii = result.mii.mii; ii <= limit && !accepted; ++ii) {
        ++result.attempts;
        result.finalIiTried = ii;
        try {
            AssignResult assignment;
            int64_t assign_ns;
            {
                SpanScope span(&tracer, "assign");
                assignment = assigner.run(graph, ii, &ctx);
                assign_ns = span.close();
            }
            result.phaseMs.assignMs += nsToMs(assign_ns);
            result.phaseMs.orderMs += assignment.orderMillis;
            result.phaseMs.routeMs += assignment.routeMillis;
            tally.orderNs += assignment.orderMillis * 1e6;
            tally.routeNs += assignment.routeMillis * 1e6;
            result.evictions += assignment.evictions;
            result.invariantRecoveries += assignment.invariantFailures;
            result.mrtWordScans += assignment.wordScans;
            if (!assignment.success) {
                ++result.assignRetries;
                if (assignment.failure != FailureKind::None) {
                    result.failure = assignment.failure;
                    result.failureDetail = assignment.detail;
                }
                continue;
            }
            Schedule schedule;
            bool scheduled;
            {
                SpanScope span(&tracer, "sched");
                LoopContext sched_ctx(assignment.loop.graph);
                scheduled = scheduler->schedule(assignment.loop, model,
                                                ii, schedule,
                                                &sched_ctx);
                result.ctxHits += sched_ctx.hits();
                result.ctxMisses += sched_ctx.misses();
                result.phaseMs.scheduleMs += nsToMs(span.close());
            }
            if (!scheduled) {
                result.failure = FailureKind::IiExhausted;
                continue;
            }
            bool verified;
            {
                SpanScope span(&tracer, "verify");
                verified = verifySchedule(assignment.loop, model,
                                          schedule, &why);
                result.phaseMs.verifyMs += nsToMs(span.close());
            }
            if (!verified) {
                ++result.verifierRejects;
                result.failure = FailureKind::VerifierReject;
                continue;
            }
            accept(result, std::move(assignment.loop),
                   std::move(schedule), ii);
            accepted = true;
        } catch (const InternalError &err) {
            ++result.invariantRecoveries;
            result.failure = FailureKind::InternalInvariant;
            result.failureDetail = err.what();
        }
    }

    if (options.backend == CompileBackend::Race) {
        if (result.success) {
            result.exact.heuristicIi = result.ii;
            if (replayExactSearch(graph, model, options,
                                  result.mii.mii,
                                  result.exact.heuristicIi - 1, result,
                                  tracer, tally)) {
                result.exact.tightened = true;
            } else if (result.exact.outcome == ExactOutcome::Unsat) {
                result.exact.certified = true;
            }
        } else {
            replayExactSearch(graph, model, options, result.mii.mii,
                              limit, result, tracer, tally);
        }
    }

    if (!result.success && options.fallback) {
        replayLadder(graph, machine, model, options, *scheduler, limit,
                     result);
    }

    result.ctxHits += ctx.hits();
    result.ctxMisses += ctx.misses();
    result.mrtWordScans += scheduler->wordScans();
    result.phaseMs.totalMs = nsToMs(nowNs() - start);

    ++tally.loops;
    tally.iiAttempts += result.attempts;
    tally.assignFails += result.assignRetries;
    tally.evictions += result.evictions;
    tally.copies += result.copies;
    tally.ctxMisses += result.ctxMisses;
    tally.wordScans += result.mrtWordScans;
    tallyExactOutcome(result, tally);
    return result;
}

ResultPrint
fingerprint(const CompileResult &result)
{
    const ExactStats &e = result.exact;
    ResultPrint print;
    print.ii = result.ii;
    print.image = std::hash<std::string>{}(canonicalResultBytes(result));
    print.exact = std::string(exactOutcomeName(e.outcome)) + " " +
                  std::to_string(e.tightened) + std::to_string(e.certified) +
                  " " + std::to_string(e.exactIi) + " " +
                  std::to_string(e.heuristicIi) + " " +
                  std::to_string(e.probes) + " " +
                  std::to_string(e.conflicts) + " " +
                  std::to_string(e.decisions) + " " +
                  std::to_string(e.propagations) + " " + e.detail;
    return print;
}

std::string
comparePrints(const ResultPrint &replayed, const ResultPrint &reference)
{
    if (replayed.ii != reference.ii)
        return "ii " + std::to_string(replayed.ii) + " vs " +
               std::to_string(reference.ii);
    if (replayed.image != reference.image)
        return "placement, start cycles or counters differ";
    if (replayed.exact != reference.exact)
        return "exact arm: " + replayed.exact + " vs " + reference.exact;
    return "";
}

void
writeSpans(const Tracer &tracer, const Args &args, Report &report)
{
    const std::string path = args.outDir + "/spans-" + args.workload + ".tsv";
    if (tracer.write(path))
        report.info("spans written to " + path);
    else
        report.info("cannot write " + path);
}

void
reportLayers(Report &report, const Tracer &tracer,
             const LayerTally &tally)
{
    const auto totals = tracer.totals();
    auto total = [&](const char *name) -> const Tracer::Totals & {
        static const Tracer::Totals none;
        auto it = totals.find(name);
        return it == totals.end() ? none : it->second;
    };
    const double loops = tally.loops > 0 ? tally.loops : 1;
    auto perLoopUs = [&](double ns) { return ns / 1000.0 / loops; };
    auto per = [](double value, long count) {
        return count > 0 ? value / static_cast<double>(count) : 0.0;
    };

    double root_ns = 0.0;
    for (const Tracer::Span &span : tracer.spans()) {
        if (span.parent < 0)
            root_ns += static_cast<double>(span.endNs - span.startNs);
    }
    const double driver_self_ns = total("compile").selfNs +
                                  total("probe").selfNs +
                                  total("request").selfNs;
    const double coverage =
        root_ns > 0.0 ? 1.0 - driver_self_ns / root_ns : 0.0;
    report.info("layer coverage: named layers account for " +
                std::to_string(100.0 * coverage) +
                "% of traced time (floor " +
                std::to_string(100.0 * minCoverage) + "%)");
    if (root_ns > 0.0 && coverage < minCoverage)
        report.fail("named layers cover too little of the traced time");

    report.metric("workload.gen_ms", tally.genMs, "ms");
    report.metric("mii.us_per_loop", perLoopUs(total("mii").ns), "us");
    report.metric("order.us_per_loop", perLoopUs(tally.orderNs), "us");
    report.metric(
        "assign.us_per_loop",
        perLoopUs(total("assign").ns - tally.orderNs - tally.routeNs),
        "us");
    report.metric("assign.allocs_per_loop",
                  total("assign").allocs / loops, "count");
    report.metric("assign.evictions_per_loop", tally.evictions / loops,
                  "count");
    report.metric("assign.failed_attempts_per_loop",
                  tally.assignFails / loops, "count");
    report.metric("assign.copies_per_loop", tally.copies / loops,
                  "count");
    report.metric("route.us_per_loop", perLoopUs(tally.routeNs), "us");
    report.metric("mrt.word_scans_per_loop", tally.wordScans / loops,
                  "count");
    report.metric("ctx.misses_per_loop", tally.ctxMisses / loops,
                  "count");
    report.metric("sched.us_per_loop", perLoopUs(total("sched").ns),
                  "us");
    report.metric("sched.allocs_per_loop",
                  total("sched").allocs / loops, "count");
    report.metric("verify.us_per_loop", perLoopUs(total("verify").ns),
                  "us");
    report.metric("driver.ii_attempts_per_loop",
                  tally.iiAttempts / loops, "count");
    report.metric("driver.us_per_loop", perLoopUs(driver_self_ns), "us");

    report.metric("exact.encode_us_per_probe",
                  per(total("encode").ns / 1000.0, tally.probes), "us");
    report.metric("exact.solve_us_per_probe",
                  per(total("solve").ns / 1000.0, tally.probes), "us");
    report.metric("exact.decode_us_per_probe",
                  per(total("decode").ns / 1000.0, tally.probes), "us");
    report.metric("exact.vars_per_probe", per(tally.vars, tally.probes),
                  "count");
    report.metric("exact.clauses_per_probe",
                  per(tally.clauses, tally.probes), "count");
    report.metric("exact.conflicts_per_probe",
                  per(tally.conflicts, tally.probes), "count");
    report.metric("exact.probes", tally.probes, "count");
    report.metric("exact.decided_ratio",
                  per(tally.probeSat + tally.probeUnsat, tally.probes),
                  "ratio");
    report.metric("exact.tightened", tally.tightened, "count");
    report.metric("exact.proved", tally.proved, "count");
    report.metric("exact.vacuous", tally.vacuous, "count");
    report.metric("exact.timeouts", tally.timeouts, "count");
    report.metric("exact.unsupported", tally.unsupported, "count");

    const long lookups = tally.lookupHits + tally.lookupMisses;
    report.metric("cache.key_us",
                  per(total("cache_key").ns / 1000.0,
                      total("cache_key").count),
                  "us");
    report.metric("cache.lookup_hit_us",
                  per(total("lookup_hit").ns / 1000.0, tally.lookupHits),
                  "us");
    report.metric("cache.lookup_miss_us",
                  per(total("lookup_miss").ns / 1000.0,
                      tally.lookupMisses),
                  "us");
    report.metric("cache.store_us",
                  per(total("cache_store").ns / 1000.0, tally.stores),
                  "us");
    report.metric("cache.entry_bytes", per(tally.bytesStored, tally.stores),
                  "bytes");
    report.metric("cache.hit_ratio", per(tally.lookupHits, lookups),
                  "ratio");

    report.metric("serve.queue_us_p50", tally.queueUsP50, "us");
    report.metric("serve.worker_us_p50", tally.workerUsP50, "us");
    report.metric("serve.overhead_us_p50", tally.overheadUsP50, "us");
    report.metric("serve.encode_us", per(tally.encodeNs / 1000.0,
                                         tally.encodes),
                  "us");
    report.metric("serve.decode_us", per(tally.decodeNs / 1000.0,
                                         tally.decodes),
                  "us");
}

} // namespace camsbench
