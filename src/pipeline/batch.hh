/**
 * @file
 * The parallel batch-compilation engine.
 *
 * Every paper figure compiles hundreds of loop x machine x variant
 * pairs that are completely independent of one another, so the batch
 * layer fans CompileJobs across a fixed ThreadPool and collects the
 * CompileResults back **in input order**, regardless of the thread
 * count. Each job runs the ordinary single-threaded compile path
 * (compileClustered / compileUnified), which makes the results
 * bit-identical to a serial loop -- a property the tests assert.
 *
 * Alongside the results the engine records per-job wall time and
 * aggregates the pipeline's per-phase counters (II attempts, failed
 * assignment retries, evictions) into a BatchStats summary that the
 * experiment binaries publish for PR-over-PR tracking.
 *
 * Robustness: one pathological job must not wedge or kill a suite. A
 * job that throws (anything, not just InternalError -- bad_alloc,
 * logic errors) is captured into its own CompileResult as a
 * classified FailureKind::InternalInvariant failure instead of
 * propagating out of the pool, and an optional per-job deadline is
 * stamped into every job's CompileOptions so runaway searches time
 * out individually. Failed jobs are tallied per FailureKind.
 */

#ifndef CAMS_PIPELINE_BATCH_HH
#define CAMS_PIPELINE_BATCH_HH

#include <array>
#include <string>
#include <vector>

#include "support/fault.hh"
#include "support/metrics.hh"

#include "machine/machine.hh"
#include "pipeline/driver.hh"

namespace cams
{

/** One independent unit of batch work: compile one loop for one
 *  machine. Pointees must outlive the BatchRunner::run call. */
struct CompileJob
{
    const Dfg *loop = nullptr;
    const MachineDesc *machine = nullptr;
    CompileOptions options;

    /** False compiles the unified baseline path instead. */
    bool clustered = true;
};

/**
 * Every per-compile batch counter, once: X(field, "name", value),
 * where value reads the CompileResult r. The rows generate BatchStats'
 * fields, the keys of its JSON (in row order), add() and the metric
 * names publish() records.
 */
#define CAMS_BATCH_COUNTERS(X)                                             \
    X(iiAttempts, "ii_attempts", r.attempts)                               \
    X(assignRetries, "assign_retries", r.assignRetries)                    \
    X(evictions, "evictions", r.evictions)                                 \
    X(copies, "copies", r.copies)                                          \
    X(invariantRecoveries, "invariant_recoveries", r.invariantRecoveries)  \
    X(verifierRejects, "verifier_rejects", r.verifierRejects)              \
    X(faultTrips, "fault_trips", r.faultTrips)                             \
    X(ctxHits, "ctx_hits", r.ctxHits)                                      \
    X(ctxMisses, "ctx_misses", r.ctxMisses)                                \
    X(mrtWordScans, "mrt_word_scans", r.mrtWordScans)                      \
    X(cacheHits, "cache_hits", r.cacheProbed && r.fromCache)               \
    X(cacheMisses, "cache_misses", r.cacheProbed && !r.fromCache)          \
    X(exactSat, "exact_sat", r.exact.outcome == ExactOutcome::Sat)         \
    X(exactUnsat, "exact_unsat", r.exact.outcome == ExactOutcome::Unsat)   \
    X(exactTimeout, "exact_timeout",                                       \
      r.exact.outcome == ExactOutcome::Timeout)                            \
    X(exactUnsupported, "exact_unsupported",                               \
      r.exact.outcome == ExactOutcome::Unsupported)                        \
    X(exactTightened, "exact_tightened", r.exact.tightened)                \
    X(exactProved, "exact_proved", r.exact.certified && r.exact.probes > 0) \
    X(exactVacuous, "exact_vacuous",                                       \
      r.exact.certified && r.exact.probes == 0)                            \
    X(exactProbes, "exact_probes", r.exact.probes)                         \
    X(exactConflicts, "exact_conflicts", r.exact.conflicts)                \
    X(exactPropagations, "exact_propagations", r.exact.propagations)

/** Aggregate accounting of one batch run. */
struct BatchStats
{
    int jobs = 0;
    int succeeded = 0;
    int failed = 0;

    /** Worker threads the batch ran on. */
    int threads = 1;

    /** Wall-clock time of the whole batch, milliseconds. */
    double wallMillis = 0.0;

    /** Sum of per-job wall times (the serial-equivalent cost). */
    double cpuMillis = 0.0;

    /** Failed jobs per failure classification, FailureKind order. */
    std::array<long, numFailureKinds> failuresByKind{};

    /** Successes rescued by the driver's degradation ladder. */
    int degraded = 0;

    /** Jobs whose compile threw and was captured by the runner. */
    int capturedExceptions = 0;

    /**
     * The CAMS_BATCH_COUNTERS sums over every job: II attempts,
     * failed assignments, evictions, copies, recovered invariants,
     * verifier rejections, fault trips, LoopContext hits and misses,
     * MRT word scans, cache hits and misses (jobs served whole, jobs
     * that probed and compiled cold), the exact arm's outcomes (see
     * exact.hh) and its work (II probes, solver conflicts and
     * propagations). A race certificate is proved when the arm ran a
     * probe, vacuous when the heuristic already sat at MII.
     */
#define CAMS_DECLARE_COUNTER(field, name, value) long field = 0;
    CAMS_BATCH_COUNTERS(CAMS_DECLARE_COUNTER)
#undef CAMS_DECLARE_COUNTER

    /**
     * Metrics snapshot of this run (MetricsRegistry::toJson of the
     * run's internal registry: the ii_slack, final_ii_tried, job_ms
     * and assign_ms histograms; the counters are toJson()'s own
     * fields). Embedded in toJson() under "metrics" when non-empty.
     */
    std::string metricsJson;

    /** Adds one compile's counters. */
    void add(const CompileResult &r);

    /** Calls visit(name, value) for every counter, in table order. */
    template <typename Visit>
    void forEachCounter(Visit &&visit) const
    {
#define CAMS_VISIT_COUNTER(field, name, value) visit(name, field);
        CAMS_BATCH_COUNTERS(CAMS_VISIT_COUNTER)
#undef CAMS_VISIT_COUNTER
    }

    /** Adds every counter to the registry under its JSON name. */
    void publish(MetricsRegistry &registry) const;

    /** One-line JSON rendering for machine-readable logs. */
    std::string toJson() const;
};

/** Everything a batch run produces, results in input order. */
struct BatchOutcome
{
    std::vector<CompileResult> results;

    /** Wall time of each job, milliseconds, input order. */
    std::vector<double> jobMillis;

    BatchStats stats;
};

/** Fans CompileJobs over a worker pool. */
class BatchRunner
{
  public:
    /**
     * Runs every job and returns outcomes in input order.
     *
     * @param threads worker count (clamped to at least 1). The
     *        compile path stays single-threaded per job, so the
     *        results are identical for every thread count.
     * @param jobDeadlineMs per-job wall-clock budget applied to every
     *        job that does not already carry one
     *        (CompileOptions::timeBudgetMs); 0 applies none.
     * @param metrics optional registry that additionally receives
     *        every record of this run, for aggregation across several
     *        batches (suite mode runs unified + clustered). The
     *        BatchStats snapshot always comes from a fresh internal
     *        registry, so per-run numbers never mix.
     *
     * Metrics recorded per run: histograms job_ms and assign_ms over
     * all jobs, ii_slack (achieved II - MII) over non-degraded
     * successes, and final_ii_tried over failures. @p metrics also
     * receives the counters jobs_succeeded/jobs_failed/jobs_degraded
     * and every CAMS_BATCH_COUNTERS row under its JSON name; the
     * snapshot leaves them out, since BatchStats carries them.
     *
     * A compile that throws is captured as that job's classified
     * FailureKind::InternalInvariant result; the other jobs are
     * unaffected. A malformed job (null loop or machine) is a harness
     * bug and still throws std::invalid_argument after the rest of
     * the batch finished; the pool itself never deadlocks on a
     * throwing job.
     */
    static BatchOutcome run(const std::vector<CompileJob> &jobs,
                            int threads, double jobDeadlineMs = 0.0,
                            MetricsRegistry *metrics = nullptr);
};

/** Builds one clustered job per suite loop on the given machine. */
std::vector<CompileJob> clusteredJobs(const std::vector<Dfg> &suite,
                                      const MachineDesc &machine,
                                      const CompileOptions &options = {});

/** Builds one unified-baseline job per suite loop. */
std::vector<CompileJob> unifiedJobs(const std::vector<Dfg> &suite,
                                    const MachineDesc &unified,
                                    const CompileOptions &options = {});

} // namespace cams

#endif // CAMS_PIPELINE_BATCH_HH
