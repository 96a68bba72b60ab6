/**
 * @file
 * The behaviour contract: one digest per (machine, scheduler) over the
 * schedules of the first 400 published-suite loops.
 *
 * Each digest is a portable 64-bit FNV-1a hash of what a compile
 * decides -- success, degradation rung, II, every placement's cluster
 * and copy destinations, every annotated edge and every start cycle --
 * and of nothing measured (no times, no counters). A refactor that
 * keeps every schedule byte-identical keeps every digest; one that
 * moves a single copy or start cycle changes one. On a mismatch the
 * test prints the computed digests so an intended behaviour change can
 * update the table in one edit.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "machine/configs.hh"
#include "pipeline/driver.hh"
#include "workload/suite.hh"

namespace cams
{
namespace
{

/** 64-bit FNV-1a over integers fed byte by byte, low byte first. */
class Fnv1a
{
  public:
    void
    add(int64_t value)
    {
        auto bits = static_cast<uint64_t>(value);
        for (int i = 0; i < 8; ++i) {
            hash_ ^= bits & 0xff;
            hash_ *= 0x100000001b3ULL;
            bits >>= 8;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
digestResult(Fnv1a &h, const CompileResult &result)
{
    h.add(result.success ? 1 : 0);
    h.add(static_cast<int64_t>(result.degraded));
    h.add(result.ii);
    if (!result.success)
        return;
    h.add(static_cast<int64_t>(result.loop.placement.size()));
    for (const OpPlacement &place : result.loop.placement) {
        h.add(place.cluster);
        h.add(static_cast<int64_t>(place.copyDsts.size()));
        for (ClusterId dst : place.copyDsts)
            h.add(dst);
    }
    h.add(result.loop.graph.numEdges());
    for (const DfgEdge &edge : result.loop.graph.edges()) {
        h.add(edge.src);
        h.add(edge.dst);
        h.add(edge.latency);
        h.add(edge.distance);
    }
    h.add(static_cast<int64_t>(result.schedule.startCycle.size()));
    for (int cycle : result.schedule.startCycle)
        h.add(cycle);
}

struct Config
{
    const char *name;
    MachineDesc machine;
    SchedulerKind scheduler;
    uint64_t expected;
};

constexpr int digestLoops = 400;

TEST(ScheduleDigest, PublishedSuiteOnBenchmarkMachines)
{
    const std::vector<Config> configs = {
        {"2c-gp-2b-1p/sms", busedGpMachine(2, 2, 1), SchedulerKind::Swing,
         0x3cb1f7b310b5ec8dULL},
        {"2c-gp-2b-1p/ims", busedGpMachine(2, 2, 1),
         SchedulerKind::Iterative, 0xa1401e6dc0daa0fdULL},
        {"4c-gp-4b-2p/sms", busedGpMachine(4, 4, 2), SchedulerKind::Swing,
         0x9227ed87e7f6457dULL},
        {"4c-gp-4b-2p/ims", busedGpMachine(4, 4, 2),
         SchedulerKind::Iterative, 0x61b8102640e15b8aULL},
        {"2c-fs-2b-1p/sms", busedFsMachine(2, 2, 1), SchedulerKind::Swing,
         0xd7c67986cd28a326ULL},
        {"2c-fs-2b-1p/ims", busedFsMachine(2, 2, 1),
         SchedulerKind::Iterative, 0x92cba2a90259261dULL},
        {"4c-fs-2b-2p/sms", busedFsMachine(4, 2, 2), SchedulerKind::Swing,
         0x4a3e25bc6730dacbULL},
        {"4c-fs-2b-2p/ims", busedFsMachine(4, 2, 2),
         SchedulerKind::Iterative, 0xa873e49714672458ULL},
        {"4c-grid-2p/sms", gridMachine(2), SchedulerKind::Swing,
         0x0ce73aca7ebf46b8ULL},
        {"4c-grid-2p/ims", gridMachine(2), SchedulerKind::Iterative,
         0x565b42ae5e337dc0ULL},
        {"8c-gp-7b-3p/sms", busedGpMachine(8, 7, 3), SchedulerKind::Swing,
         0xab8bf6c54506183aULL},
        {"8c-gp-7b-3p/ims", busedGpMachine(8, 7, 3),
         SchedulerKind::Iterative, 0xdc0f633786961f6aULL},
    };
    const std::vector<Dfg> suite = buildSuite(digestLoops);

    std::string report;
    int mismatches = 0;
    for (const Config &config : configs) {
        CompileOptions options;
        options.scheduler = config.scheduler;
        Fnv1a h;
        for (const Dfg &loop : suite)
            digestResult(h, compileClustered(loop, config.machine, options));
        char line[96];
        std::snprintf(line, sizeof line,
                      "  %-18s 0x%016" PRIx64 "ULL%s\n", config.name,
                      h.value(),
                      h.value() == config.expected ? "" : "  <- differs");
        report += line;
        if (h.value() != config.expected)
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "computed digests:\n" << report;
}

} // namespace
} // namespace cams
