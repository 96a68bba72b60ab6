/**
 * @file
 * camsc -- the command-line loop compiler.
 *
 * Reads a loop in the text DFG format and a machine description,
 * runs cluster assignment + modulo scheduling, and reports the II
 * against the equally wide unified machine. Optional outputs: DOT of
 * the clustered graph, the VLIW kernel/pipeline listing with rotating
 * registers, a stage-scheduling register post-pass, and a pipelined
 * execution equivalence check.
 *
 * Usage:
 *   camsc --loop FILE [--machine FILE] [--scheduler sms|ims]
 *         [--simple] [--no-iterate] [--stage-schedule]
 *         [--asm] [--dot] [--simulate N]
 *
 * Suite mode compiles the whole synthetic suite through the parallel
 * batch engine instead of a single loop:
 *   camsc --suite N [--jobs N] [--seed S] [--machine FILE]
 *         [--scheduler sms|ims]
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "codegen/emit.hh"
#include "frontend/parser.hh"
#include "graph/dot.hh"
#include "graph/textio.hh"
#include "machine/configs.hh"
#include "machine/machinetext.hh"
#include "pipeline/batch.hh"
#include "pipeline/cache/compile_cache.hh"
#include "pipeline/driver.hh"
#include "regalloc/regalloc.hh"
#include "report/trace_summary.hh"
#include "sched/regmetrics.hh"
#include "sched/stage.hh"
#include "sim/compare.hh"
#include "support/metrics.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"
#include "workload/suite.hh"

namespace
{

using namespace cams;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream input(path);
    if (!input)
        return false;
    std::ostringstream buffer;
    buffer << input.rdbuf();
    out = buffer.str();
    return true;
}

int
usage()
{
    std::cerr
        << "usage: camsc (--loop FILE | --source FILE | --suite N) "
           "[--machine FILE] [options]\n"
           "  --source FILE      loop body in C-like source (see "
           "frontend/parser.hh)\n"
           "  --suite N          compile the N-loop synthetic suite "
           "through the batch engine\n"
           "  --jobs N           batch worker threads (suite mode; "
           "default: CAMS_JOBS or hardware)\n"
           "  --seed S           master seed of the synthetic suite "
           "(suite mode)\n"
           "  --machine FILE     machine description (default: 2 "
           "clusters x 4 GP, 2 buses, 1 port)\n"
           "  --scheduler KIND   sms (default) or ims\n"
           "  --backend KIND     heuristic (default), exact, or race\n"
           "                     exact: SAT decisions replace the II "
           "search (optimal)\n"
           "                     race: heuristic answer, then the "
           "exact arm tightens\n"
           "                     the II or certifies it optimal\n"
           "  --exact-conflicts N  conflict budget per exact II "
           "decision\n"
           "                     (default 50000; deterministic, "
           "unlike wall budgets)\n"
           "  --simple           drop the selection heuristic\n"
           "  --no-iterate       drop the eviction/repair iteration\n"
           "  --no-fallback      disable the degradation ladder\n"
           "  --fault P          inject faults with probability P per "
           "site (stress testing)\n"
           "  --fault-seed S     seed of the fault injector "
           "(default 1)\n"
           "  --deadline-ms D    wall-clock budget per compile; with "
           "--backend race\n"
           "                     the exact arm also stops at this "
           "deadline, so the\n"
           "                     heuristic answer always survives "
           "(camsd --budget-ms\n"
           "                     behaves the same way per request)\n"
           "  --cache-dir DIR    persistent compile cache directory\n"
           "  --cache MODE       off, ro or rw (default rw with "
           "--cache-dir)\n"
           "  --trace FILE       write a Chrome trace-event JSON "
           "(chrome://tracing, Perfetto)\n"
           "  --trace-level L    phase (default) or decision "
           "(per-node assignment verdicts)\n"
           "  --metrics FILE     write the counter/histogram registry "
           "as JSON\n"
           "  --stage-schedule   apply the register post-pass\n"
           "  --asm              print the kernel and pipeline listing\n"
           "  --emit-mve         print the MVE-unrolled kernel (no "
           "rotating files)\n"
           "  --dot              print the clustered graph as DOT\n"
           "  --simulate N       check pipelined-vs-sequential "
           "equivalence over N iterations\n";
    return 2;
}

/**
 * Suite mode: compiles the synthetic suite (clustered and unified
 * baseline) through the batch engine and reports the deviation
 * summary plus the machine-readable batch statistics.
 */
int
runSuiteMode(int count, uint64_t seed, int jobs,
             const MachineDesc &machine, const CompileOptions &options,
             const std::string &metrics_path, CompileCache *cache)
{
    const std::vector<Dfg> suite = buildSuite(count, seed);
    const MachineDesc unified = machine.unifiedEquivalent();
    std::cerr << "compiling " << suite.size() << " loops on "
              << machine.name << " with " << jobs << " jobs..."
              << std::endl;

    MetricsRegistry registry;
    const BatchOutcome base = BatchRunner::run(
        unifiedJobs(suite, unified, options), jobs, 0.0, &registry);
    const BatchOutcome clustered = BatchRunner::run(
        clusteredJobs(suite, machine, options), jobs, 0.0, &registry);

    IntHistogram deviations;
    int failures = 0;
    int degraded = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        const CompileResult &b = base.results[i];
        const CompileResult &c = clustered.results[i];
        // A degraded II measures the fallback, not the paper's
        // pipeline: exclude it from the deviation summary.
        if (b.degraded != DegradeLevel::None ||
            c.degraded != DegradeLevel::None) {
            ++degraded;
            ++failures;
            continue;
        }
        if (!b.success || !c.success) {
            ++failures;
            continue;
        }
        deviations.add(c.ii - b.ii);
    }

    std::cout << "suite:     " << suite.size() << " loops (seed 0x"
              << std::hex << seed << std::dec << ")\n";
    std::cout << "machine:   " << machine.name << "\n";
    std::cout << "matched:   " << deviations.countAt(0) << " of "
              << suite.size() << " at deviation 0";
    if (deviations.total() > 0) {
        std::cout << " (max deviation " << deviations.maxValue()
                  << ")";
    }
    std::cout << "\nfailures:  " << failures << " (" << degraded
              << " degraded)\n";
    std::cout << "batch:     " << clustered.stats.toJson() << "\n";
    if (cache != nullptr) {
        const CompileCache::Totals totals = cache->totals();
        std::cout << "cache:     mode=" << cacheModeName(cache->mode())
                  << " hits="
                  << base.stats.cacheHits + clustered.stats.cacheHits
                  << " misses="
                  << base.stats.cacheMisses +
                         clustered.stats.cacheMisses
                  << " entries=" << totals.entries
                  << " bytes=" << totals.bytesOnDisk << "\n";
        cache->publish(registry);
    }

    if (options.trace.sink) {
        std::vector<std::string> names;
        names.reserve(suite.size());
        for (const Dfg &loop : suite)
            names.push_back(loop.name());
        std::cout << "\n" << renderTraceSummary(names, clustered);
    }
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out) {
            std::cerr << "cannot write " << metrics_path << "\n";
            return 1;
        }
        out << registry.toJson() << "\n";
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string loop_path;
    std::string source_path;
    std::string machine_path;
    CompileOptions options;
    bool want_asm = false;
    bool want_mve = false;
    bool want_dot = false;
    bool want_stage = false;
    int simulate = 0;
    int suite_count = 0;
    int jobs = ThreadPool::defaultThreads();
    uint64_t seed = defaultSuiteSeed;
    double fault_prob = 0.0;
    uint64_t fault_seed = 1;
    std::string trace_path;
    std::string metrics_path;
    std::string cache_dir;
    CacheMode cache_mode = CacheMode::ReadWrite;
    TraceLevel trace_level = TraceLevel::Phase;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Every value option accepts both "--opt VALUE" and
        // "--opt=VALUE".
        std::string inline_value;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
            inline_value = arg.substr(eq + 1);
            arg.resize(eq);
        }
        auto next = [&]() -> const char * {
            if (!inline_value.empty())
                return inline_value.c_str();
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--loop") {
            const char *value = next();
            if (!value)
                return usage();
            loop_path = value;
        } else if (arg == "--source") {
            const char *value = next();
            if (!value)
                return usage();
            source_path = value;
        } else if (arg == "--machine") {
            const char *value = next();
            if (!value)
                return usage();
            machine_path = value;
        } else if (arg == "--scheduler") {
            const char *value = next();
            if (!value)
                return usage();
            const std::string kind = value;
            if (kind == "sms") {
                options.scheduler = SchedulerKind::Swing;
            } else if (kind == "ims") {
                options.scheduler = SchedulerKind::Iterative;
            } else {
                return usage();
            }
        } else if (arg == "--backend") {
            const char *value = next();
            if (!value || !parseCompileBackend(value, options.backend))
                return usage();
        } else if (arg == "--exact-conflicts") {
            const char *value = next();
            if (!value)
                return usage();
            options.exact.conflictBudget = std::atol(value);
        } else if (arg == "--simple") {
            options.assign.fullHeuristic = false;
        } else if (arg == "--no-iterate") {
            options.assign.iterative = false;
        } else if (arg == "--no-fallback") {
            options.fallback = false;
        } else if (arg == "--fault") {
            const char *value = next();
            if (!value)
                return usage();
            fault_prob = std::atof(value);
            if (fault_prob < 0.0 || fault_prob > 1.0)
                return usage();
        } else if (arg == "--fault-seed") {
            const char *value = next();
            if (!value)
                return usage();
            fault_seed = std::strtoull(value, nullptr, 0);
        } else if (arg == "--deadline-ms") {
            const char *value = next();
            if (!value)
                return usage();
            options.timeBudgetMs = std::atof(value);
        } else if (arg == "--trace") {
            const char *value = next();
            if (!value)
                return usage();
            trace_path = value;
        } else if (arg == "--trace-level") {
            const char *value = next();
            if (!value || !parseTraceLevel(value, trace_level))
                return usage();
        } else if (arg == "--metrics") {
            const char *value = next();
            if (!value)
                return usage();
            metrics_path = value;
        } else if (arg == "--cache-dir") {
            const char *value = next();
            if (!value)
                return usage();
            cache_dir = value;
        } else if (arg == "--cache") {
            const char *value = next();
            if (!value || !parseCacheMode(value, cache_mode))
                return usage();
        } else if (arg == "--stage-schedule") {
            want_stage = true;
        } else if (arg == "--asm") {
            want_asm = true;
        } else if (arg == "--emit-mve") {
            want_mve = true;
        } else if (arg == "--dot") {
            want_dot = true;
        } else if (arg == "--simulate") {
            const char *value = next();
            if (!value)
                return usage();
            simulate = std::atoi(value);
        } else if (arg == "--suite") {
            const char *value = next();
            if (!value)
                return usage();
            suite_count = std::atoi(value);
            if (suite_count <= 0)
                return usage();
        } else if (arg == "--jobs") {
            const char *value = next();
            if (!value)
                return usage();
            jobs = std::atoi(value);
            if (jobs <= 0)
                return usage();
        } else if (arg == "--seed") {
            const char *value = next();
            if (!value)
                return usage();
            seed = std::strtoull(value, nullptr, 0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return usage();
        }
    }
    const int input_forms = (!loop_path.empty() ? 1 : 0) +
                            (!source_path.empty() ? 1 : 0) +
                            (suite_count > 0 ? 1 : 0);
    if (input_forms != 1)
        return usage(); // exactly one input form

    std::string text;
    Dfg loop;
    std::string error;

    MachineDesc machine = busedGpMachine(2, 2, 1);
    if (!machine_path.empty()) {
        if (!readFile(machine_path, text)) {
            std::cerr << "cannot read " << machine_path << "\n";
            return 1;
        }
        if (!parseMachine(text, machine, error)) {
            std::cerr << machine_path << ": " << error << "\n";
            return 1;
        }
    }

    if (fault_prob > 0.0) {
        options.faults = std::make_shared<FaultInjector>(
            FaultConfig::uniform(fault_prob, fault_seed));
    }

    std::unique_ptr<CompileCache> cache;
    if (!cache_dir.empty() && cache_mode != CacheMode::Off) {
        cache = std::make_unique<CompileCache>(cache_dir, cache_mode);
        if (!cache->enabled()) {
            std::cerr << "warning: " << cache->openError()
                      << "; continuing uncached\n";
            cache.reset();
        } else {
            options.cache = cache.get();
        }
    }

    std::unique_ptr<TraceSink> sink;
    if (!trace_path.empty()) {
        sink = std::make_unique<TraceSink>(trace_level);
        options.trace.sink = sink.get();
    }
    auto write_trace = [&]() {
        if (!sink)
            return true;
        if (!sink->writeFile(trace_path)) {
            std::cerr << "cannot write " << trace_path << "\n";
            return false;
        }
        return true;
    };

    if (suite_count > 0) {
        const int rc = runSuiteMode(suite_count, seed, jobs, machine,
                                    options, metrics_path, cache.get());
        return write_trace() ? rc : 1;
    }

    if (!loop_path.empty()) {
        if (!readFile(loop_path, text)) {
            std::cerr << "cannot read " << loop_path << "\n";
            return 1;
        }
        if (!parseDfg(text, loop, error)) {
            std::cerr << loop_path << ": " << error << "\n";
            return 1;
        }
    } else {
        if (!readFile(source_path, text)) {
            std::cerr << "cannot read " << source_path << "\n";
            return 1;
        }
        if (!parseLoopSource(text, loop, error)) {
            std::cerr << source_path << ": " << error << "\n";
            return 1;
        }
    }

    if (!loop.name().empty())
        options.trace.tag = loop.name();
    const CompileResult unified =
        compileUnified(loop, machine.unifiedEquivalent(), options);
    const CompileResult result =
        compileClustered(loop, machine, options);

    // Trace and metrics files are worth having even when the compile
    // failed -- that is when the timeline matters most.
    if (!write_trace())
        return 1;
    if (!metrics_path.empty()) {
        MetricsRegistry registry;
        registry.record("total_ms", result.phaseMs.totalMs);
        registry.record("assign_ms", result.phaseMs.assignMs);
        registry.record("schedule_ms", result.phaseMs.scheduleMs);
        registry.record("verify_ms", result.phaseMs.verifyMs);
        BatchStats counters;
        counters.add(unified);
        counters.add(result);
        counters.publish(registry);
        if (cache)
            cache->publish(registry);
        if (result.success && result.degraded == DegradeLevel::None)
            registry.record("ii_slack", result.ii - result.mii.mii);
        std::ofstream out(metrics_path);
        if (!out) {
            std::cerr << "cannot write " << metrics_path << "\n";
            return 1;
        }
        out << registry.toJson() << "\n";
    }

    if (!result.success) {
        std::cerr << "compilation failed: "
                  << failureKindName(result.failure) << " (final II "
                  << "tried " << result.finalIiTried << ")";
        if (!result.failureDetail.empty())
            std::cerr << "\n  " << result.failureDetail;
        std::cerr << "\n";
        return 1;
    }
    if (result.degraded != DegradeLevel::None) {
        std::cerr << "note: the primary pipeline failed; this is the "
                  << degradeLevelName(result.degraded)
                  << " fallback schedule\n";
    }

    Schedule schedule = result.schedule;
    if (want_stage) {
        const StageScheduleResult staged =
            stageSchedule(result.loop, schedule);
        std::cout << "stage scheduling: lifetime "
                  << staged.lifetimeBefore << " -> "
                  << staged.lifetimeAfter << " (" << staged.moves
                  << " moves)\n";
        schedule = staged.schedule;
    }

    const RegMetrics regs = computeRegMetrics(result.loop, schedule);
    std::cout << "loop:      " << loop.name() << " (" << loop.numNodes()
              << " ops)\n";
    std::cout << "machine:   " << machine.name << "\n";
    if (cache) {
        std::cout << "cache:     " << (result.fromCache ? "hit" : "miss")
                  << " (" << cacheModeName(cache->mode()) << " "
                  << cache->directory() << ")\n";
    }
    std::cout << "unified:   II=" << unified.ii << "\n";
    std::cout << "clustered: II=" << result.ii << " (deviation "
              << result.ii - unified.ii << "), copies=" << result.copies
              << ", stages=" << schedule.stageCount() << "\n";
    if (options.backend != CompileBackend::Heuristic) {
        std::cout << "exact:     outcome="
                  << exactOutcomeName(result.exact.outcome);
        if (result.exact.tightened) {
            std::cout << " (tightened " << result.exact.heuristicIi
                      << " -> " << result.exact.exactIi << ")";
        }
        if (result.exact.certified)
            std::cout << " (certified optimal at II=" << result.ii
                      << ")";
        std::cout << " probes=" << result.exact.probes
                  << " conflicts=" << result.exact.conflicts << " "
                  << formatFixed(result.exact.solveMs, 2) << "ms";
        if (!result.exact.detail.empty())
            std::cout << " detail=" << result.exact.detail;
        std::cout << "\n";
    }
    std::cout << "phases:    assign=" << formatFixed(
                     result.phaseMs.assignMs, 2)
              << "ms (order=" << formatFixed(result.phaseMs.orderMs, 2)
              << " route=" << formatFixed(result.phaseMs.routeMs, 2)
              << ") schedule="
              << formatFixed(result.phaseMs.scheduleMs, 2)
              << "ms verify=" << formatFixed(result.phaseMs.verifyMs, 2)
              << "ms total=" << formatFixed(result.phaseMs.totalMs, 2)
              << "ms over " << result.attempts << " II attempts\n";
    std::cout << "registers: MaxLive=" << regs.maxLive
              << " MVE=" << regs.mveFactor << "\n";

    const RegisterAllocation allocation =
        allocateRegisters(result.loop, schedule, machine);
    std::string why;
    if (!verifyAllocation(result.loop, schedule, allocation, &why)) {
        std::cerr << "register allocation invalid: " << why << "\n";
        return 1;
    }
    std::cout << "files:    ";
    for (int c = 0; c < machine.numClusters(); ++c)
        std::cout << " C" << c << "=" << allocation.registersPerFile[c];
    std::cout << " rotating registers\n";

    if (want_asm) {
        std::cout << "\n"
                  << emitPipeline(result.loop, schedule, allocation,
                                  machine);
    }
    if (want_mve) {
        std::cout << "\n"
                  << emitMveKernel(result.loop, schedule, allocation,
                                   machine);
    }
    if (want_dot) {
        std::vector<int> clusters;
        for (const auto &place : result.loop.placement)
            clusters.push_back(place.cluster);
        std::cout << "\n" << toDot(result.loop.graph, &clusters);
    }
    if (simulate > 0) {
        const EquivalenceReport report = checkEquivalence(
            loop, result.loop, schedule, machine, simulate);
        std::cout << "simulation: " << report.comparisons
                  << " values over " << simulate << " iterations -> "
                  << (report.equivalent ? "EQUIVALENT" : "MISMATCH")
                  << "\n";
        for (const std::string &issue : report.mismatches)
            std::cout << "  " << issue << "\n";
        if (!report.equivalent)
            return 1;
    }
    return 0;
}
