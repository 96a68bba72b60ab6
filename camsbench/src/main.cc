// camsbench: the CAMS end-to-end benchmark.
//
//   camsbench --workload suite-heuristic|race-exact|serve-cache
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 times the workload and prints its end-to-end metrics;
// --trace 1 runs it untraced once more and then replays it with spans
// around each layer's public calls, printing the per-layer metrics.
// The last stdout line is one JSON object; the exit code is non-zero
// when any operation failed or any output check was violated.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sys/resource.h>

#include "bench.hh"
#include "pipeline/cache/serialize.hh"
#include "workload/suite.hh"

namespace camsbench
{

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, Entry{value, unit}});
}

void
Report::info(const std::string &line)
{
    std::cout << "# " << line << std::endl;
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    // The first few reasons are enough to diagnose; the count is
    // what the result line carries.
    if (failuresShown_ < 20) {
        ++failuresShown_;
        info("FAILED: " + why);
    }
}

namespace
{

/** Shortest round-trip text of a double: every digit, no more. */
std::string
number(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

} // namespace

void
Report::print() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + number(entry.value) +
               ", \"unit\": \"" + entry.unit + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

int32_t
Tracer::begin(const char *name)
{
    if (spans_.size() == spans_.capacity()) {
        // Growing the span buffer is the tracer's own allocation; keep
        // it out of the open span's count.
        const long saved = tlAllocs;
        spans_.reserve(spans_.capacity() * 2);
        tlAllocs = saved;
    }
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, open_, nowNs(), 0, tlAllocs});
    open_ = id;
    return id;
}

int64_t
Tracer::end(int32_t id)
{
    Span &span = spans_[id];
    span.endNs = nowNs();
    span.allocs = tlAllocs - span.allocs;
    open_ = span.parent;
    return span.endNs - span.startNs;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_ns[span.parent] +=
                static_cast<double>(span.endNs - span.startNs);
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        Totals &t = out[span.name];
        const double ns = static_cast<double>(span.endNs - span.startNs);
        t.ns += ns;
        t.selfNs += ns - child_ns[i];
        t.allocs += static_cast<double>(span.allocs);
        ++t.count;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "id\tparent\tname\tstart_ns\tdur_ns\tallocs\n";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << i << '\t' << span.parent << '\t' << span.name << '\t'
            << span.startNs - origin << '\t'
            << span.endNs - span.startNs << '\t' << span.allocs << '\n';
    }
    return static_cast<bool>(out);
}

double
Samples::percentile(double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

long
Samples::countAbove(double value) const
{
    return static_cast<long>(
        std::count_if(values.begin(), values.end(),
                      [&](double v) { return v > value; }));
}

Latency
windowedLatency(const std::vector<double> &samples, int windows,
                Report &report, const std::string &what)
{
    const size_t size = samples.size() / static_cast<size_t>(windows);
    std::vector<double> p50s;
    std::vector<double> p99s;
    long beyond = 0;
    for (int w = 0; w < windows && size > 0; ++w) {
        Samples window;
        window.values.assign(samples.begin() + w * size,
                             samples.begin() + (w + 1) * size);
        p50s.push_back(window.percentile(50.0));
        p99s.push_back(window.percentile(99.0));
        beyond += window.countAbove(p99s.back());
    }
    Latency latency;
    if (p50s.empty())
        return latency;
    latency.p50 = median(p50s);
    latency.p99 = median(p99s);
    report.info(what + ": " + std::to_string(samples.size()) +
                " latency samples in " +
                std::to_string(windows) + " windows of " +
                std::to_string(size) + "; " + std::to_string(beyond) +
                " beyond their window's p99; p50 and p99 are medians "
                "over the windows");
    return latency;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string
canonicalResultBytes(const cams::CompileResult &result)
{
    cams::CompileResult copy = result;
    copy.phaseMs = cams::PhaseTimes{};
    cams::ByteWriter writer;
    cams::writeCompileResult(writer, copy);
    return writer.take();
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL) ^
                 (0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace camsbench

namespace
{

int
usage()
{
    std::cerr << "usage: camsbench --workload suite-heuristic|race-exact|"
                 "serve-cache --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    camsbench::Args args;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value, nullptr, 0);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stoi(value);
            } else if (flag == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (flag == "--out-dir") {
                args.outDir = value;
            } else {
                return usage();
            }
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (argc % 2 != 1 || args.outDir.empty() || args.seconds < 1)
        return usage();
    if (!have_seed)
        args.seed = cams::defaultSuiteSeed;

    camsbench::Report report;
    int rc;
    if (args.workload == "suite-heuristic")
        rc = camsbench::runSuiteHeuristic(args, report);
    else if (args.workload == "race-exact")
        rc = camsbench::runRaceExact(args, report);
    else if (args.workload == "serve-cache")
        rc = camsbench::runServeCache(args, report);
    else
        return usage();
    if (rc != 0)
        return rc;
    report.print();
    return report.failed() == 0 ? 0 : 1;
}
