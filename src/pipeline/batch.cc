#include "pipeline/batch.hh"

#include <sstream>
#include <stdexcept>

#include "support/threadpool.hh"
#include "support/time.hh"

namespace cams
{

void
BatchStats::add(const CompileResult &r)
{
#define CAMS_ADD_COUNTER(field, name, value) field += (value);
    CAMS_BATCH_COUNTERS(CAMS_ADD_COUNTER)
#undef CAMS_ADD_COUNTER
}

void
BatchStats::publish(MetricsRegistry &registry) const
{
    forEachCounter([&](const char *name, long value) {
        registry.add(name, value);
    });
}

std::string
BatchStats::toJson() const
{
    std::ostringstream os;
    os << "{"
       << "\"jobs\":" << jobs << ","
       << "\"succeeded\":" << succeeded << ","
       << "\"failed\":" << failed << ","
       << "\"degraded\":" << degraded << ","
       << "\"captured_exceptions\":" << capturedExceptions << ","
       << "\"threads\":" << threads << ","
       << "\"wall_ms\":" << wallMillis << ","
       << "\"cpu_ms\":" << cpuMillis << ",";
    forEachCounter([&](const char *name, long value) {
        os << "\"" << name << "\":" << value << ",";
    });
    os << "\"failure_kinds\":{";
    bool first = true;
    for (int kind = 1; kind < numFailureKinds; ++kind) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << failureKindName(FailureKind(kind))
           << "\":" << failuresByKind[kind];
    }
    os << "}";
    if (!metricsJson.empty())
        os << ",\"metrics\":" << metricsJson;
    os << "}";
    return os.str();
}

BatchOutcome
BatchRunner::run(const std::vector<CompileJob> &jobs, int threads,
                 double jobDeadlineMs, MetricsRegistry *metrics)
{
    BatchOutcome outcome;
    outcome.results.resize(jobs.size());
    outcome.jobMillis.resize(jobs.size(), 0.0);
    std::vector<char> captured(jobs.size(), 0);

    const Stopwatch batch_watch;
    {
        ThreadPool pool(threads);
        for (size_t i = 0; i < jobs.size(); ++i) {
            pool.post([&jobs, &outcome, &captured, jobDeadlineMs, i] {
                const CompileJob &job = jobs[i];
                if (!job.loop || !job.machine) {
                    throw std::invalid_argument(
                        "CompileJob with null loop or machine");
                }
                CompileOptions options = job.options;
                if (options.timeBudgetMs <= 0.0)
                    options.timeBudgetMs = jobDeadlineMs;
                if (options.trace.sink && options.trace.tag.empty())
                    options.trace.tag = "job" + std::to_string(i);
                // One scope per job in the worker's lane, so a trace
                // shows the batch fan-out at a glance.
                TraceScope job_scope(options.trace, TraceLevel::Phase,
                                     "batch_job", "batch");
                const Stopwatch job_watch;
                try {
                    outcome.results[i] =
                        job.clustered
                            ? compileClustered(*job.loop, *job.machine,
                                               options)
                            : compileUnified(*job.loop, *job.machine,
                                             options);
                } catch (const std::exception &err) {
                    // One pathological job must not kill the suite:
                    // capture the escape as that job's classified
                    // failure and keep going.
                    CompileResult crashed;
                    crashed.failure = FailureKind::InternalInvariant;
                    crashed.failureDetail =
                        std::string("uncaught exception: ") +
                        err.what();
                    outcome.results[i] = std::move(crashed);
                    captured[i] = 1;
                } catch (...) {
                    CompileResult crashed;
                    crashed.failure = FailureKind::InternalInvariant;
                    crashed.failureDetail =
                        "uncaught non-standard exception";
                    outcome.results[i] = std::move(crashed);
                    captured[i] = 1;
                }
                outcome.jobMillis[i] = job_watch.elapsedMs();
            });
        }
        pool.wait(); // rethrows a harness bug (null job), if any
        outcome.stats.threads = pool.threadCount();
    }
    outcome.stats.wallMillis = batch_watch.elapsedMs();

    // The snapshot registry is fresh per run; the caller's registry
    // (if any) receives the same records on top, so suite-wide
    // aggregation never contaminates per-run numbers.
    MetricsRegistry internal;
    auto record = [&](const char *name, double value) {
        internal.record(name, value);
        if (metrics)
            metrics->record(name, value);
    };

    BatchStats &stats = outcome.stats;
    stats.jobs = static_cast<int>(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CompileResult &result = outcome.results[i];
        if (result.success) {
            ++stats.succeeded;
            if (result.degraded != DegradeLevel::None)
                ++stats.degraded;
            else
                record("ii_slack", result.ii - result.mii.mii);
        } else {
            ++stats.failed;
            ++stats.failuresByKind[int(result.failure)];
            record("final_ii_tried", result.finalIiTried);
        }
        if (captured[i])
            ++stats.capturedExceptions;
        record("job_ms", outcome.jobMillis[i]);
        record("assign_ms", result.phaseMs.assignMs);
        stats.cpuMillis += outcome.jobMillis[i];
        stats.add(result);
    }
    // The counters go to the caller only: BatchStats carries them.
    if (metrics) {
        metrics->add("jobs_succeeded", stats.succeeded);
        metrics->add("jobs_failed", stats.failed);
        metrics->add("jobs_degraded", stats.degraded);
        stats.publish(*metrics);
    }
    stats.metricsJson = internal.toJson();
    return outcome;
}

std::vector<CompileJob>
clusteredJobs(const std::vector<Dfg> &suite, const MachineDesc &machine,
              const CompileOptions &options)
{
    std::vector<CompileJob> jobs;
    jobs.reserve(suite.size());
    for (const Dfg &loop : suite) {
        jobs.push_back({&loop, &machine, options, true});
        if (options.trace.sink && !loop.name().empty())
            jobs.back().options.trace.tag = "c:" + loop.name();
    }
    return jobs;
}

std::vector<CompileJob>
unifiedJobs(const std::vector<Dfg> &suite, const MachineDesc &unified,
            const CompileOptions &options)
{
    std::vector<CompileJob> jobs;
    jobs.reserve(suite.size());
    for (const Dfg &loop : suite) {
        jobs.push_back({&loop, &unified, options, false});
        if (options.trace.sink && !loop.name().empty())
            jobs.back().options.trace.tag = "u:" + loop.name();
    }
    return jobs;
}

} // namespace cams
