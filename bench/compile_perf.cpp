/**
 * @file
 * Compile-time benchmark of the clustered driver: runs the shared
 * suite through compileClustered on one worker thread and writes
 * BENCH_compile_perf.json with two kinds of numbers.
 *
 * Deterministic work counters -- the summed II and every batch
 * counter (CAMS_BATCH_COUNTERS: II attempts, assignment retries,
 * evictions, copies, LoopContext hits and misses, MRT word scans, ...)
 * -- depend only on the code and the suite, never on the machine or
 * its load. They come from the heuristic backend on 2c-gp-2b-1p with
 * SMS; under a race_ prefix, from one race-backend pass on
 * 4c-fs-2b-2p, whose exact arm's probes, conflicts and propagations
 * are just as deterministic under its conflict budgets; and, under a
 * "<machine>_<sms|ims>_" prefix, from one untimed heuristic pass for
 * each other config of the six benchmark machines x SMS/IMS (the
 * schedule digest's twelve). CI gates them via
 * tools/check_compile_perf.py against the checked-in
 * bench/baselines/compile_perf_baseline.json: a change that does more
 * work shows up as a larger counter.
 *
 * Two more counters are heap allocations, counted by the global
 * operator new this binary replaces (as tests/alloc_ceiling_test.cc
 * does): allocs, those of one untimed compileClustered pass over the
 * suite on 2c-gp-2b-1p, and cache_hit_allocs, those of the same pass
 * served through a read-only compile cache that an earlier pass
 * filled (a temporary directory under the working directory). Most
 * loops of that pass are cache hits; a loop whose Weisfeiler-Leman
 * twin came first shares its entry, misses the byte gate and
 * compiles. With a fixed toolchain both counts are as deterministic
 * as the work counters, so the gate catches a change that brings
 * allocations back to a compile or to a cache hit.
 *
 * Wall time -- the mean, p50 and p90 per loop and the per-phase
 * breakdown, fastest of --reps repetitions (default 3) -- is reported
 * for information and not gated.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "machine/configs.hh"
#include "support/str.hh"

namespace
{

/** Heap allocations made so far, by every thread. */
std::atomic<long> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (align <= alignof(std::max_align_t))
        return std::malloc(size == 0 ? 1 : size);
    void *p = nullptr;
    return posix_memalign(&p, align, size == 0 ? 1 : size) == 0 ? p
                                                                 : nullptr;
}

void *
checkedAlloc(std::size_t size, std::size_t align = 0)
{
    if (void *p = countedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable allocation form goes through the counter, so the
// library's and the runtime's allocations pair up with free().
void *operator new(std::size_t size) { return checkedAlloc(size); }
void *operator new[](std::size_t size) { return checkedAlloc(size); }

void *
operator new(std::size_t size, std::align_val_t align)
{
    return checkedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return checkedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using namespace cams;

/** Latency summary over the suite. */
struct SuiteTimes
{
    BatchOutcome outcome; ///< fastest repetition
    double wallMs = 0.0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p90Ns = 0.0;
};

double
percentileNs(std::vector<double> sortedMs, double fraction)
{
    if (sortedMs.empty())
        return 0.0;
    const size_t index = std::min(
        sortedMs.size() - 1,
        static_cast<size_t>(fraction * (sortedMs.size() - 1) + 0.5));
    return sortedMs[index] * 1e6;
}

SuiteTimes
timeSuite(const std::vector<CompileJob> &jobs, int reps)
{
    SuiteTimes times;
    for (int rep = 0; rep < reps; ++rep) {
        BatchOutcome outcome = BatchRunner::run(jobs, 1);
        if (rep == 0 || outcome.stats.cpuMillis < times.wallMs) {
            times.wallMs = outcome.stats.cpuMillis;
            times.outcome = std::move(outcome);
        }
    }
    std::vector<double> sorted = times.outcome.jobMillis;
    std::sort(sorted.begin(), sorted.end());
    times.meanNs = jobs.empty()
                       ? 0.0
                       : times.outcome.stats.cpuMillis * 1e6 / jobs.size();
    times.p50Ns = percentileNs(sorted, 0.50);
    times.p90Ns = percentileNs(sorted, 0.90);
    return times;
}

/** One pass's work counters: the summed II plus every batch counter,
 *  each key prefixed. */
void
appendCounters(std::ostringstream &os, const BatchOutcome &outcome,
               const char *prefix)
{
    long ii_sum = 0;
    for (const CompileResult &result : outcome.results)
        ii_sum += result.ii;
    os << "\"" << prefix << "ii_sum\":" << ii_sum;
    outcome.stats.forEachCounter([&](const char *name, long value) {
        os << ",\"" << prefix << name << "\":" << value;
    });
}

/** A counters-only pass and the prefix of its keys. */
struct CounterPass
{
    std::string prefix;
    BatchOutcome outcome;
};

/** Heap allocations of one compileClustered pass over the suite. */
long
countAllocations(const std::vector<Dfg> &suite, const MachineDesc &machine)
{
    const long before = allocations.load();
    for (const Dfg &loop : suite)
        compileClustered(loop, machine, CompileOptions{});
    return allocations.load() - before;
}

/**
 * Heap allocations of one compileClustered pass over the suite served
 * through a read-only cache that a first pass filled. The directory
 * is relative to the working directory, so the path's length, and
 * with it the allocation count, is the same on every host.
 */
long
countCacheHitAllocations(const std::vector<Dfg> &suite,
                         const MachineDesc &machine)
{
    const std::string dir = "compile_perf_cache.tmp";
    std::filesystem::remove_all(dir);
    {
        CompileCache cache(dir, CacheMode::ReadWrite);
        CompileOptions options;
        options.cache = &cache;
        for (const Dfg &loop : suite)
            compileClustered(loop, machine, options);
    }
    long hits = 0;
    long allocs = 0;
    {
        CompileCache cache(dir, CacheMode::ReadOnly);
        CompileOptions options;
        options.cache = &cache;
        const long before = allocations.load();
        for (const Dfg &loop : suite)
            hits += compileClustered(loop, machine, options).fromCache;
        allocs = allocations.load() - before;
    }
    std::filesystem::remove_all(dir);
    std::cerr << "cache pass: " << hits << " hits, "
              << static_cast<long>(suite.size()) - hits << " misses"
              << std::endl;
    return allocs;
}

/** The deterministic work counters the CI gate compares. */
std::string
countersJson(long allocs, long cacheHitAllocs,
             const BatchOutcome &heuristic, const BatchOutcome &race,
             const std::vector<CounterPass> &passes)
{
    std::ostringstream os;
    os << "{\"allocs\":" << allocs << ",\"cache_hit_allocs\":"
       << cacheHitAllocs << ",";
    appendCounters(os, heuristic, "");
    os << ",";
    appendCounters(os, race, "race_");
    for (const CounterPass &pass : passes) {
        os << ",";
        appendCounters(os, pass.outcome, pass.prefix.c_str());
    }
    os << "}";
    return os.str();
}

/** Wall-time fields (information only). */
std::string
timesJson(const SuiteTimes &times, size_t loops)
{
    const BatchStats &stats = times.outcome.stats;
    const PhaseTimes totals = [&] {
        PhaseTimes sum;
        for (const CompileResult &result : times.outcome.results) {
            sum.orderMs += result.phaseMs.orderMs;
            sum.assignMs += result.phaseMs.assignMs;
            sum.routeMs += result.phaseMs.routeMs;
            sum.scheduleMs += result.phaseMs.scheduleMs;
            sum.verifyMs += result.phaseMs.verifyMs;
            sum.totalMs += result.phaseMs.totalMs;
        }
        return sum;
    }();
    auto perLoopNs = [&](double ms) {
        return loops == 0 ? 0.0 : ms * 1e6 / static_cast<double>(loops);
    };
    std::ostringstream os;
    os << "\"cpu_ms\":" << formatFixed(stats.cpuMillis, 3) << ","
       << "\"mean_ns_per_loop\":" << formatFixed(times.meanNs, 0) << ","
       << "\"p50_ns\":" << formatFixed(times.p50Ns, 0) << ","
       << "\"p90_ns\":" << formatFixed(times.p90Ns, 0) << ","
       << "\"phase_ns_per_loop\":{"
       << "\"assign\":" << formatFixed(perLoopNs(totals.assignMs), 0)
       << ",\"order\":" << formatFixed(perLoopNs(totals.orderMs), 0)
       << ",\"route\":" << formatFixed(perLoopNs(totals.routeMs), 0)
       << ",\"schedule\":"
       << formatFixed(perLoopNs(totals.scheduleMs), 0)
       << ",\"verify\":" << formatFixed(perLoopNs(totals.verifyMs), 0)
       << ",\"total\":" << formatFixed(perLoopNs(totals.totalMs), 0)
       << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cams;
    benchutil::parseBatchArgs(argc, argv);
    int reps = 3;
    if (const char *env = std::getenv("CAMS_PERF_REPS")) {
        const int value = std::atoi(env);
        if (value > 0)
            reps = value;
    }

    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const std::vector<Dfg> &suite = benchutil::sharedSuite();

    std::cerr << "timing " << suite.size() << " loops on "
              << machine.name << ", best of " << reps << " reps..."
              << std::endl;
    const SuiteTimes times =
        timeSuite(clusteredJobs(suite, machine, CompileOptions{}), reps);
    const long allocs = countAllocations(suite, machine);
    const long cacheHitAllocs = countCacheHitAllocations(suite, machine);

    const MachineDesc raceMachine = busedFsMachine(4, 2, 2);
    CompileOptions race;
    race.backend = CompileBackend::Race;
    std::cerr << "racing " << suite.size() << " loops on "
              << raceMachine.name << "..." << std::endl;
    const BatchOutcome raced =
        BatchRunner::run(clusteredJobs(suite, raceMachine, race), 1);

    std::vector<CounterPass> passes;
    for (const MachineDesc &config :
         {busedGpMachine(2, 2, 1), busedGpMachine(4, 4, 2),
          busedFsMachine(2, 2, 1), busedFsMachine(4, 2, 2),
          gridMachine(2), busedGpMachine(8, 7, 3)}) {
        for (const SchedulerKind kind :
             {SchedulerKind::Swing, SchedulerKind::Iterative}) {
            if (config.name == machine.name && kind == SchedulerKind::Swing)
                continue; // the timed pass above
            CompileOptions options;
            options.scheduler = kind;
            const std::string prefix =
                config.name +
                (kind == SchedulerKind::Swing ? "_sms_" : "_ims_");
            std::cerr << "counting " << prefix << "..." << std::endl;
            passes.push_back(
                {prefix,
                 BatchRunner::run(clusteredJobs(suite, config, options), 1)});
        }
    }
    const std::string counters =
        countersJson(allocs, cacheHitAllocs, times.outcome, raced, passes);

    std::ofstream json("BENCH_compile_perf.json");
    json << "{\"bench\":\"compile_perf\","
         << "\"loops\":" << suite.size() << ","
         << "\"machine\":\"" << machine.name << "\","
         << "\"race_machine\":\"" << raceMachine.name << "\","
         << "\"reps\":" << reps << ","
         << "\"counters\":" << counters << ","
         << timesJson(times, suite.size()) << "}\n";

    std::cout << "compile perf over " << suite.size()
              << " loops (best of " << reps << " reps): "
              << formatFixed(times.meanNs / 1000.0, 1)
              << " us/loop mean, p50 "
              << formatFixed(times.p50Ns / 1000.0, 1) << " p90 "
              << formatFixed(times.p90Ns / 1000.0, 1) << "\n"
              << "counters: " << counters << "\n"
              << "BENCH_compile_perf.json written\n";
    benchutil::writeObservability();
    return 0;
}
