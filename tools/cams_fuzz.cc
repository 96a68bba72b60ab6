/**
 * @file
 * cams_fuzz -- the randomized stress harness of the compile pipeline.
 *
 * Generates random loops x random machine descriptions, compiles the
 * lot through the batch engine with fault injection enabled, and
 * checks the robustness contract on every outcome:
 *
 *   - a success must carry a schedule the independent verifier
 *     re-approves (the oracle), with FailureKind::None;
 *   - a failure must carry a classified FailureKind;
 *   - nothing may crash, abort, or hang (per-job deadlines bound
 *     runaway searches; the CI job runs this under ASan/UBSan).
 *
 * Four deterministic job classes spice the sweep: every odd job
 * schedules with Rau's IMS instead of SMS, so both schedulers run
 * under the sanitizers; every 16th job runs with scheduler-slot
 * denial at probability 1 so the degradation ladder must rescue it,
 * every 31st job runs with a microscopic deadline and no fallback so
 * Timeout classification is exercised, and every 37th job gets a
 * hostile loop -- a distance-0 cycle or a latency beyond the driver's
 * ceiling -- that the oracle demands be rejected as a malformed
 * graph.
 *
 * Everything is a pure function of --seed; a failing job reproduces
 * exactly. Outcome counts per FailureKind land in BENCH_stress.json.
 *
 * Usage:
 *   cams_fuzz [--iters N] [--seed S] [--jobs N] [--fault P]
 *             [--deadline-ms D] [--max-nodes N] [--out FILE]
 *             [--trace FILE] [--trace-level L] [--metrics FILE]
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "machine/configs.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/driver.hh"
#include "sched/verifier.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"
#include "workload/generator.hh"

namespace
{

using namespace cams;

int
usage()
{
    std::cerr
        << "usage: cams_fuzz [--iters N] [--seed S] [--jobs N]\n"
           "                 [--fault P] [--deadline-ms D]\n"
           "                 [--max-nodes N] [--out FILE]\n"
           "  --iters N        jobs to generate (default 200)\n"
           "  --seed S         master seed; everything derives from "
           "it (default 1)\n"
           "  --jobs N         batch worker threads\n"
           "  --fault P        per-site fault probability ceiling "
           "(default 0.25)\n"
           "  --deadline-ms D  per-job wall-clock budget "
           "(default 5000)\n"
           "  --max-nodes N    loop size ceiling (default 48)\n"
           "  --out FILE       stats JSON (default "
           "BENCH_stress.json)\n"
           "  --trace FILE     write a Chrome trace-event JSON\n"
           "  --trace-level L  phase (default) or decision\n"
           "  --metrics FILE   write the metrics registry as JSON\n"
           "  --cache-dir DIR  persistent compile cache directory "
           "(fault-injected jobs bypass it)\n"
           "  --cache MODE     off, ro or rw (default rw with "
           "--cache-dir)\n"
           "  --backend KIND   heuristic (default), exact, or race;\n"
           "                   race stresses the SAT arm against the "
           "oracle too\n";
    return 2;
}

/** Random machine: GP/FS/grid shapes plus a bus-starved variant. */
MachineDesc
randomMachine(Rng &rng)
{
    switch (rng.uniformInt(0, 3)) {
      case 0:
        return busedGpMachine(rng.uniformInt(2, 4), rng.uniformInt(1, 4),
                              rng.uniformInt(1, 2));
      case 1:
        return busedFsMachine(rng.uniformInt(2, 4), rng.uniformInt(1, 4),
                              rng.uniformInt(1, 2));
      case 2:
        return gridMachine(rng.uniformInt(1, 2));
      default:
        // Deliberately starved interconnect: one bus, one port.
        return busedGpMachine(rng.uniformInt(2, 4), 1, 1);
    }
}

/** Jobs whose loop makeHostile corrupts. */
bool
hostileJob(int i)
{
    return i % 37 == 23;
}

/**
 * Closes a distance-0 cycle (a self-edge or a 2-node cycle) or adds
 * an edge whose latency exceeds maxLoopLatency, up to INT_MAX, and
 * reseals the loop.
 */
void
makeHostile(Rng &rng, Dfg &loop)
{
    const NodeId a = rng.uniformInt(0, loop.numNodes() - 1);
    const NodeId b = rng.uniformInt(0, loop.numNodes() - 1);
    switch (rng.uniformInt(0, 2)) {
      case 0:
        loop.addEdge(a, a, rng.uniformInt(0, 3), 0);
        break;
      case 1:
        loop.addEdge(a, b, 1, 0);
        loop.addEdge(b, a, 1, 0);
        break;
      default: {
        const int latencies[] = {maxLoopLatency + 1, 1000000000,
                                 std::numeric_limits<int>::max()};
        loop.addEdge(a, b, latencies[rng.uniformInt(0, 2)], 1);
        break;
      }
    }
    loop.seal();
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = 200;
    uint64_t seed = 1;
    int jobs = ThreadPool::defaultThreads();
    double fault_max = 0.25;
    double deadline_ms = 5000.0;
    int max_nodes = 48;
    std::string out_path = "BENCH_stress.json";
    std::string trace_path;
    std::string metrics_path;
    std::string cache_dir;
    CacheMode cache_mode = CacheMode::ReadWrite;
    TraceLevel trace_level = TraceLevel::Phase;
    CompileBackend backend = CompileBackend::Heuristic;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--iters" && value) {
            iters = std::atoi(value);
            ++i;
        } else if (arg == "--seed" && value) {
            seed = std::strtoull(value, nullptr, 0);
            ++i;
        } else if (arg == "--jobs" && value) {
            jobs = std::atoi(value);
            ++i;
        } else if (arg == "--fault" && value) {
            fault_max = std::atof(value);
            ++i;
        } else if (arg == "--deadline-ms" && value) {
            deadline_ms = std::atof(value);
            ++i;
        } else if (arg == "--max-nodes" && value) {
            max_nodes = std::atoi(value);
            ++i;
        } else if (arg == "--out" && value) {
            out_path = value;
            ++i;
        } else if (arg == "--trace" && value) {
            trace_path = value;
            ++i;
        } else if (arg == "--trace-level" && value) {
            if (!parseTraceLevel(value, trace_level))
                return usage();
            ++i;
        } else if (arg == "--metrics" && value) {
            metrics_path = value;
            ++i;
        } else if (arg == "--cache-dir" && value) {
            cache_dir = value;
            ++i;
        } else if (arg == "--cache" && value) {
            if (!parseCacheMode(value, cache_mode))
                return usage();
            ++i;
        } else if (arg == "--backend" && value) {
            if (!parseCompileBackend(value, backend))
                return usage();
            ++i;
        } else {
            return usage();
        }
    }
    if (iters <= 0 || jobs <= 0 || max_nodes < 2 || fault_max < 0.0 ||
        fault_max > 1.0) {
        return usage();
    }

    // Stable storage: jobs keep pointers into these.
    std::vector<Dfg> loops;
    std::vector<MachineDesc> machines;
    loops.reserve(iters);
    machines.reserve(iters);
    std::vector<CompileJob> batch_jobs;
    batch_jobs.reserve(iters);

    GeneratorParams params;
    params.maxNodes = max_nodes;
    params.sccLoopProbability = 0.35; // recurrences stress assignment

    for (int i = 0; i < iters; ++i) {
        // One private stream per job: any subset of jobs reproduces.
        Rng rng(seed + 0x9e3779b97f4a7c15ULL * (uint64_t(i) + 1));
        machines.push_back(randomMachine(rng));
        loops.push_back(generateLoop(
            rng.next(), params, "fuzz_" + std::to_string(i)));

        FaultConfig faults;
        faults.seed = rng.next();
        for (int site = 0; site < numFaultSites; ++site)
            faults.probability[site] = rng.uniformReal() * fault_max;

        CompileJob job;
        job.loop = &loops.back();
        job.machine = &machines.back();
        job.clustered = true;
        job.options.verify = true;
        job.options.backend = backend;
        job.options.trace.tag = "fuzz_" + std::to_string(i);
        if (i % 2 == 1)
            job.options.scheduler = SchedulerKind::Iterative;
        if (i % 16 == 7) {
            // Guaranteed scheduler denial: the primary search cannot
            // succeed, so the degradation ladder must rescue the job.
            faults.probability[int(FaultSite::SchedulerSlotDeny)] = 1.0;
        }
        if (i % 31 == 11) {
            // Timeout classification: microscopic budget, no rescue.
            job.options.fallback = false;
            job.options.timeBudgetMs = 0.0001;
        }
        if (hostileJob(i))
            makeHostile(rng, loops.back());
        job.options.faults = std::make_shared<FaultInjector>(faults);
        batch_jobs.push_back(std::move(job));
    }

    std::unique_ptr<TraceSink> sink;
    if (!trace_path.empty()) {
        sink = std::make_unique<TraceSink>(trace_level);
        for (CompileJob &job : batch_jobs)
            job.options.trace.sink = sink.get();
    }

    // Exercises the cache under concurrent fuzz traffic. Jobs whose
    // injector can trip bypass it by design, so with --fault 0 the
    // cache serves everything and with faults on it mostly tests the
    // bypass; either way the oracle below re-verifies every success.
    std::unique_ptr<CompileCache> cache;
    if (!cache_dir.empty() && cache_mode != CacheMode::Off) {
        cache = std::make_unique<CompileCache>(cache_dir, cache_mode);
        if (!cache->enabled()) {
            std::cerr << "warning: " << cache->openError()
                      << "; continuing uncached\n";
            cache.reset();
        } else {
            for (CompileJob &job : batch_jobs)
                job.options.cache = cache.get();
        }
    }

    std::cerr << "cams_fuzz: " << iters << " jobs (seed " << seed
              << ", fault ceiling " << fault_max << ", " << jobs
              << " threads)..." << std::endl;
    MetricsRegistry registry;
    const BatchOutcome outcome =
        BatchRunner::run(batch_jobs, jobs, deadline_ms, &registry);

    // Oracle pass: every outcome is a verified schedule or a
    // classified failure.
    int violations = 0;
    int degraded_exhaustive = 0;
    int degraded_single = 0;
    for (int i = 0; i < iters; ++i) {
        const CompileResult &result = outcome.results[i];
        if (hostileJob(i) &&
            (result.success ||
             result.failure != FailureKind::InternalInvariant)) {
            std::cerr << "VIOLATION job " << i
                      << ": hostile loop not rejected as malformed\n";
            ++violations;
        }
        if (result.success) {
            if (result.failure != FailureKind::None) {
                std::cerr << "VIOLATION job " << i
                          << ": success with failure kind "
                          << failureKindName(result.failure) << "\n";
                ++violations;
            }
            const ResourceModel model(machines[i]);
            std::string why;
            if (!verifySchedule(result.loop, model, result.schedule,
                                &why)) {
                std::cerr << "VIOLATION job " << i
                          << ": oracle rejected the schedule: " << why
                          << "\n";
                ++violations;
            }
            if (result.degraded == DegradeLevel::ExhaustiveAssign)
                ++degraded_exhaustive;
            if (result.degraded == DegradeLevel::SingleCluster)
                ++degraded_single;
        } else {
            if (result.failure == FailureKind::None) {
                std::cerr << "VIOLATION job " << i
                          << ": failure without classification\n";
                ++violations;
            }
            if (result.failureDetail.empty()) {
                std::cerr << "VIOLATION job " << i
                          << ": failure without detail\n";
                ++violations;
            }
        }
    }

    const BatchStats &stats = outcome.stats;
    std::cout << "fuzz: " << stats.jobs << " jobs, " << stats.succeeded
              << " ok (" << degraded_exhaustive << " exhaustive + "
              << degraded_single << " single-cluster degraded), "
              << stats.failed << " classified failures, "
              << stats.faultTrips << " fault trips, "
              << stats.invariantRecoveries << " invariant recoveries, "
              << violations << " violations\n";
    std::cout << "failure kinds: ";
    for (int kind = 1; kind < numFailureKinds; ++kind) {
        std::cout << failureKindName(FailureKind(kind)) << "="
                  << stats.failuresByKind[kind]
                  << (kind + 1 < numFailureKinds ? " " : "\n");
    }

    std::ofstream json(out_path);
    json << "{\"bench\":\"cams_fuzz\","
         << "\"iters\":" << iters << ","
         << "\"seed\":" << seed << ","
         << "\"jobs\":" << jobs << ","
         << "\"fault_ceiling\":" << fault_max << ","
         << "\"deadline_ms\":" << deadline_ms << ","
         << "\"violations\":" << violations << ","
         << "\"degraded_exhaustive\":" << degraded_exhaustive << ","
         << "\"degraded_single_cluster\":" << degraded_single << ","
         << "\"stats\":" << stats.toJson() << "}\n";
    std::cout << out_path << " written\n";
    if (sink) {
        if (!sink->writeFile(trace_path)) {
            std::cerr << "cannot write " << trace_path << "\n";
            return 1;
        }
        std::cout << trace_path << " written (" << sink->eventCount()
                  << " events, " << sink->laneCount() << " lanes)\n";
    }
    if (!metrics_path.empty()) {
        if (cache)
            cache->publish(registry);
        std::ofstream metrics_out(metrics_path);
        if (!metrics_out) {
            std::cerr << "cannot write " << metrics_path << "\n";
            return 1;
        }
        metrics_out << registry.toJson() << "\n";
        std::cout << metrics_path << " written\n";
    }
    return violations == 0 ? 0 : 1;
}
