/**
 * @file
 * Shared plumbing of the benchmark binary: the command line, the
 * report that becomes the final JSON line, the allocation counter fed
 * by alloc_hook.cc, the in-memory span recorder of the traced run, and
 * small statistics helpers.
 */

#ifndef CAMSBENCH_BENCH_HH
#define CAMSBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/driver.hh"

namespace camsbench
{

/** Heap allocations made by the calling thread (operator new calls). */
extern thread_local long tlAllocs;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Set-ups per run; the median is reported as setup_s. */
constexpr int setupRepeats = 3;

/** The command line every workload receives. */
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    /** Where set-up scratch (sockets, caches) and the trace file go. */
    std::string outDir;
};

/**
 * What one run reports: failed/attempted operations, named metrics and
 * free-form info lines. Info lines go to stdout as they arrive; the
 * metrics become the final JSON line.
 */
class Report
{
  public:
    /** Records one metric for the result line. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Prints one "# ..." info line immediately. */
    void info(const std::string &line);

    /** Records one failed operation or check violation. */
    void fail(const std::string &why);

    long attempted = 0;
    long failed() const { return failed_; }

    /** Prints the final JSON line. */
    void print() const;

  private:
    struct Entry
    {
        double value;
        std::string unit;
    };
    std::vector<std::pair<std::string, Entry>> metrics_;
    long failed_ = 0;
    int failuresShown_ = 0;
};

/**
 * Spans of the traced run, kept in memory and written out at exit.
 * begin()/end() nest: a span's parent is the span open when it
 * began, and the allocations counted between begin and end are
 * charged to it (children included).
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int32_t parent;
        int64_t startNs;
        int64_t endNs;
        long allocs;
    };

    Tracer();

    int32_t begin(const char *name);

    /** Closes the span; returns its duration in nanoseconds. */
    int64_t end(int32_t id);

    /** Renames a span after the fact (e.g. a lookup that hit). */
    void rename(int32_t id, const char *name) { spans_[id].name = name; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name totals: inclusive ns, self ns, allocs, count. */
    struct Totals
    {
        double ns = 0.0;
        double selfNs = 0.0;
        double allocs = 0.0;
        long count = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Writes every span as one tab-separated line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    int32_t open_ = -1;
};

/** RAII span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {
    }
    ~SpanScope() { close(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Ends the span early; returns its duration in ns (0 if none). */
    int64_t close()
    {
        if (tracer_ == nullptr || id_ < 0)
            return 0;
        const int64_t ns = tracer_->end(id_);
        id_ = -1;
        return ns;
    }
    int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    int32_t id_;
};

/** Latency samples with nearest-rank percentiles. */
struct Samples
{
    std::vector<double> values;

    /** Sorts in place and returns the nearest-rank percentile. */
    double percentile(double p);

    /** Samples strictly above the given value. */
    long countAbove(double value) const;
};

/**
 * Latency percentiles of a run whose samples, in arrival order, are
 * split into equal windows: the median over windows of each window's
 * p50 and p99. A host that slows down for a few seconds moves a window
 * or two, not the medians.
 */
struct Latency
{
    double p50 = 0.0;
    double p99 = 0.0;
};

/**
 * Computes Latency and prints the sample counts it rests on, labelled
 * @p what.
 */
Latency windowedLatency(const std::vector<double> &samples, int windows,
                        Report &report, const std::string &what);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** Median of a non-empty list (copy sorted). */
double median(std::vector<double> values);

/** The result image with wall-clock fields zeroed. */
std::string canonicalResultBytes(const cams::CompileResult &result);

/** splitmix64 step: a stream of seeds from one master seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream, uint64_t index);

/** Entry points of the three workloads. */
int runSuiteHeuristic(const Args &args, Report &report);
int runRaceExact(const Args &args, Report &report);
int runServeCache(const Args &args, Report &report);

} // namespace camsbench

#endif // CAMSBENCH_BENCH_HH
