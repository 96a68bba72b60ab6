#include "speed.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "bench.hh"

namespace camsbench
{

namespace
{

/** Period of each sampler: one timed kernel pass per period. */
constexpr int samplePeriodMs = 20;

/**
 * Slowdown bins: each bin takes the median of the samples within
 * binHaloNs on either side of it, so every bin rests on ~60 samples
 * per probed CPU while following phases of a second or more.
 */
constexpr int64_t binNs = 250'000'000;
constexpr int64_t binHaloNs = 500'000'000;

/**
 * Thread CPU time of each half of a kernel pass on the reference host
 * (a quiet vCPU of the 4-vCPU VM NOTE.md describes): at these times
 * the slowdown reads 1.
 */
constexpr double referenceMapNs = 60000.0;
constexpr double referenceVectorNs = 25000.0;

/**
 * The kernel's two halves, each a fixed piece of the kind of work a
 * compiler does: an ordered map churned by inserts, finds and erases
 * (allocation and pointer chasing), and short-lived vectors of vectors
 * (allocation and small copies). Of the kernels tried on the reference
 * host, the geometric mean of these two tracked the per-third-second
 * speed of heuristic compiles (slope 1.06) and of raced compiles
 * (slope 0.91) most closely; an L1-resident table walk moved only
 * 0.75x as much as the compiles did.
 */
uint64_t
mapChurn()
{
    std::map<uint32_t, uint32_t> map;
    uint64_t acc = 0;
    for (uint32_t i = 0; i < 300; ++i)
        map[static_cast<uint32_t>(mixSeed(i, 8, 0) % 2500)] = i;
    for (uint32_t i = 0; i < 300; ++i) {
        const auto it =
            map.find(static_cast<uint32_t>(mixSeed(i, 9, 0) % 2500));
        if (it != map.end()) {
            acc += it->second;
            map.erase(it);
        }
    }
    return acc + map.size();
}

uint64_t
vectorChurn()
{
    uint64_t acc = 0;
    for (int round = 0; round < 100; ++round) {
        std::vector<std::vector<int>> rows(8);
        for (int r = 0; r < 8; ++r) {
            rows[r].resize(static_cast<size_t>(5 + r));
            for (int k = 0; k < 5 + r; ++k)
                rows[r][k] = k * round;
            acc += static_cast<uint64_t>(rows[r][r % 3]);
        }
    }
    return acc;
}

int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/**
 * Time the host has stolen from @p cpu since boot, in ns (the steal
 * column of /proc/stat, in clock ticks); 0 when unreadable.
 */
int64_t
stealNs(int cpu)
{
    std::FILE *file = std::fopen("/proc/stat", "r");
    if (file == nullptr)
        return 0;
    const std::string prefix = "cpu" + std::to_string(cpu) + " ";
    char line[512];
    unsigned long long steal = 0;
    while (std::fgets(line, sizeof(line), file) != nullptr) {
        if (std::strncmp(line, prefix.c_str(), prefix.size()) != 0)
            continue;
        unsigned long long user, nice, system, idle, iowait, irq, softirq;
        if (std::sscanf(line + prefix.size(),
                        "%llu %llu %llu %llu %llu %llu %llu %llu", &user,
                        &nice, &system, &idle, &iowait, &irq, &softirq,
                        &steal) != 8)
            steal = 0;
        break;
    }
    std::fclose(file);
    static const double tickNs =
        1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    return static_cast<int64_t>(static_cast<double>(steal) * tickNs);
}

double
medianOf(std::vector<double> &values)
{
    const auto mid = values.begin() + static_cast<long>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

/** First slice at or after @p t. */
template <typename Slices>
auto
sliceAt(const Slices &slices, int64_t t)
{
    return std::lower_bound(
        slices.begin(), slices.end(), t,
        [](const auto &slice, int64_t v) { return slice.wallNs < v; });
}

} // namespace

SpeedProbe::SpeedProbe(const std::vector<int> &cpus) : perCpu_(cpus.size())
{
    for (size_t t = 0; t < cpus.size(); ++t) {
        threads_.emplace_back([this, cpu = cpus[t], &out = perCpu_[t]]() {
            sample(cpu, out);
        });
    }
}

SpeedProbe::~SpeedProbe() { stop(); }

void
SpeedProbe::sample(int cpu, std::vector<Slice> &out)
{
    const PinScope pin(cpu);
    out.reserve(1 << 15);
    uint64_t sink = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(samplePeriodMs));
        // Untimed pass first: the timed one then finds the allocator's
        // chunks and its own lines warm, whatever the workload did.
        sink += mapChurn() + vectorChurn();
        const int64_t t0 = threadCpuNs();
        sink += mapChurn();
        const int64_t t1 = threadCpuNs();
        sink += vectorChurn();
        const int64_t t2 = threadCpuNs();
        const double slowdown =
            std::sqrt(static_cast<double>(t1 - t0) / referenceMapNs *
                      static_cast<double>(t2 - t1) / referenceVectorNs);
        out.push_back(Slice{nowNs(), slowdown, stealNs(cpu)});
    }
    sink_.fetch_add(sink, std::memory_order_relaxed);
}

void
SpeedProbe::stop()
{
    if (threads_.empty())
        return;
    stop_.store(true);
    for (std::thread &thread : threads_)
        thread.join();
    threads_.clear();

    std::vector<double> all;
    int64_t first = INT64_MAX;
    int64_t last = INT64_MIN;
    double stolen = 0.0;
    double spanned = 0.0;
    for (const std::vector<Slice> &slices : perCpu_) {
        for (const Slice &slice : slices)
            all.push_back(slice.slowdown);
        if (slices.size() < 2)
            continue;
        first = std::min(first, slices.front().wallNs);
        last = std::max(last, slices.back().wallNs);
        stolen += static_cast<double>(slices.back().stealNs -
                                      slices.front().stealNs);
        spanned += static_cast<double>(slices.back().wallNs -
                                       slices.front().wallNs);
    }
    samples_ = static_cast<long>(all.size());
    if (first > last) {
        rate_.assign(1, 1.0);
        return;
    }
    medianSlowdown_ = medianOf(all);
    stealShare_ = spanned > 0.0 ? stolen / spanned : 0.0;

    // Each bin: the median slowdown of every CPU's samples within
    // binHaloNs of it, and the mean over CPUs of the share of the
    // window each CPU lost to steal.
    origin_ = first;
    const size_t count = static_cast<size_t>((last - first) / binNs) + 1;
    std::vector<double> values;
    for (size_t b = 0; b < count; ++b) {
        const int64_t lo =
            origin_ + static_cast<int64_t>(b) * binNs - binHaloNs;
        const int64_t hi = lo + binNs + 2 * binHaloNs;
        values.clear();
        double steal = 0.0;
        int cpus = 0;
        for (const std::vector<Slice> &slices : perCpu_) {
            const auto from = sliceAt(slices, lo);
            const auto to = sliceAt(slices, hi);
            for (auto it = from; it != to; ++it)
                values.push_back(it->slowdown);
            if (to - from < 2)
                continue;
            const Slice &a = *from;
            const Slice &z = *(to - 1);
            steal += static_cast<double>(z.stealNs - a.stealNs) /
                     static_cast<double>(z.wallNs - a.wallNs);
            ++cpus;
        }
        const double slowdown =
            values.empty() ? medianSlowdown_ : medianOf(values);
        const double share =
            std::clamp(cpus > 0 ? steal / cpus : stealShare_, 0.0, 0.9);
        rate_.push_back((1.0 - share) / slowdown);
    }
}

double
SpeedProbe::referenceNs(int64_t t0, int64_t t1) const
{
    const int64_t last = static_cast<int64_t>(rate_.size()) - 1;
    double total = 0.0;
    for (int64_t t = t0; t < t1;) {
        const int64_t b = std::clamp<int64_t>((t - origin_) / binNs, 0, last);
        const int64_t end =
            b == last ? t1 : std::min(t1, origin_ + (b + 1) * binNs);
        total += static_cast<double>(end - t) * rate_[b];
        t = end;
    }
    return total;
}

double
SpeedProbe::expectedRate() const
{
    return static_cast<double>(perCpu_.size()) * 1000.0 / samplePeriodMs;
}

void
reportSpeed(const SpeedProbe &probe, double wallSeconds, Report &report,
            const std::string &what)
{
    const double expected = probe.expectedRate() * wallSeconds;
    report.info(what + " speed probe: " + std::to_string(probe.samples()) +
                " samples (" + std::to_string(static_cast<long>(expected)) +
                " expected), median slowdown " +
                std::to_string(probe.medianSlowdown()) +
                " (1 = reference speed), steal " +
                std::to_string(100.0 * probe.stealShare()) + "%");
    if (static_cast<double>(probe.samples()) < 0.5 * expected)
        report.fail(what + " speed probe: too few samples");
}

PinScope::PinScope(int cpu)
{
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

PinScope::~PinScope()
{
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

int
currentCpu()
{
    return std::max(0, sched_getcpu());
}

std::vector<int>
allCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

} // namespace camsbench
