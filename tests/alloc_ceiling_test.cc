/**
 * @file
 * Allocation ceilings of whole compiles, cluster assignment and
 * modulo scheduling.
 *
 * This binary replaces the global operator new with a counting one.
 * A heuristic compileClustered call, on each of the six benchmark
 * machines under SMS and IMS, must average at most 8 allocations per
 * input node: the loop analyses and the graphs themselves are flat
 * arrays, and the assigner's and schedulers' working state is reused
 * across restarts and II probes, so what remains is mostly the
 * annotated result.
 *
 * Reading a published-suite loop back from its cache image (readDfg)
 * must cost at most 6 allocations per loop: the node and edge arrays,
 * the sealed index's three arrays, and names too long to store
 * inline.
 *
 * The Figure 10 step places every node tentatively on every cluster
 * and rolls each placement back; together with the Figure 11 repair
 * it is the compiler's inner loop. Its copy records, undo logs, hop
 * plans and copy requests live in the LoopContext's reused attempt
 * state, so a warm rerun of the assigner allocates only its result,
 * not per tentative placement: rerunning ClusterAssigner::run at the
 * compiled II with the same warmed LoopContext must average at most
 * 1 allocation per graph node.
 *
 * The scheduler gets two ceilings at the compiled II, for SMS and
 * IMS, per node of the annotated graph it schedules (copies
 * included): a warm rerun of ModuloScheduler::schedule on the same
 * LoopContext at most 0.1 allocations, and a first call on a fresh
 * context -- what the driver makes on every II attempt, since the
 * annotated graph changes per II -- at most 1.5, which pays for that
 * context's flat analyses and the scheduler's first working state.
 *
 * The exact arm's encoder builds every clause in one reused buffer or
 * through the solver's 1-, 2- and 3-literal forms, and the solver
 * simplifies it into another, so what it allocates grows with the
 * solver's variables (their watch lists), not with its clauses.
 * ExactEncoder::encode at MII, in the fast and the certificate window,
 * must average at most 2.25 allocations per solver variable; a small
 * window alone reaches about 5, so the ceiling, like the assigner's,
 * holds the suite's average.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "assign/assigner.hh"
#include "exact/encode.hh"
#include "machine/configs.hh"
#include "pipeline/cache/serialize.hh"
#include "pipeline/context.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "sched/schedule.hh"
#include "workload/suite.hh"

namespace
{

long allocations = 0;

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    ++allocations;
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
void *
operator new(std::size_t size)
{
    return checkedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return checkedAlloc(size);
}

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

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

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

namespace cams
{
namespace
{

constexpr int ceilingLoops = 200;
constexpr double maxCompileAllocsPerNode = 8.0;
constexpr double maxAllocsPerNode = 1.0;
constexpr double maxWarmSchedAllocsPerNode = 0.1;
constexpr double maxFreshSchedAllocsPerNode = 1.5;
constexpr double maxEncodeAllocsPerVar = 2.25;
constexpr double maxReadDfgAllocsPerLoop = 6.0;

/** Allocations per input node of a heuristic compileClustered. */
double
compileAllocsPerNode(const MachineDesc &machine, SchedulerKind kind)
{
    const std::vector<Dfg> suite = buildSuite(ceilingLoops);
    CompileOptions options;
    options.scheduler = kind;
    long total = 0;
    long nodes = 0;
    for (const Dfg &loop : suite) {
        const long before = allocations;
        const CompileResult compiled =
            compileClustered(loop, machine, options);
        total += allocations - before;
        nodes += loop.numNodes();
        EXPECT_TRUE(compiled.success) << loop.name();
    }
    EXPECT_GT(nodes, 0);
    const double perNode =
        static_cast<double>(total) / static_cast<double>(nodes);
    std::printf("%s %s: %.2f compile allocations per node\n",
                machine.name.c_str(),
                kind == SchedulerKind::Swing ? "sms" : "ims", perNode);
    return perNode;
}

/** Allocations per loop of readDfg over the published suite's graph
 *  images. */
double
readDfgAllocsPerLoop()
{
    const std::vector<Dfg> suite = buildSuite();
    long total = 0;
    for (const Dfg &loop : suite) {
        const std::string image = packDfg(loop);
        Dfg back;
        const long before = allocations;
        EXPECT_TRUE(readDfg(image, back)) << loop.name();
        total += allocations - before;
    }
    const double perLoop =
        static_cast<double>(total) / static_cast<double>(suite.size());
    std::printf("readDfg: %.2f allocations per loop\n", perLoop);
    return perLoop;
}

/** Allocations per node of a warm assigner rerun over the suite. */
double
warmAllocsPerNode(const MachineDesc &machine)
{
    const std::vector<Dfg> suite = buildSuite(ceilingLoops);
    const ResourceModel model(machine);
    const ClusterAssigner assigner(model);
    long total = 0;
    long nodes = 0;
    for (const Dfg &loop : suite) {
        const CompileResult compiled =
            compileClustered(loop, machine, CompileOptions{});
        if (!compiled.success || compiled.degraded != DegradeLevel::None)
            continue;
        LoopContext ctx(loop);
        const AssignResult warm = assigner.run(loop, compiled.ii, &ctx);
        EXPECT_TRUE(warm.success) << loop.name();
        const long before = allocations;
        const AssignResult again = assigner.run(loop, compiled.ii, &ctx);
        total += allocations - before;
        nodes += loop.numNodes();
        EXPECT_TRUE(again.success) << loop.name();
    }
    EXPECT_GT(nodes, 0);
    const double perNode =
        static_cast<double>(total) / static_cast<double>(nodes);
    std::printf("%s: %.1f allocations per node\n", machine.name.c_str(),
                perNode);
    return perNode;
}

/** Allocations per node of ModuloScheduler::schedule at the compiled
 *  II: the first call on a fresh LoopContext, then a warm rerun. */
struct SchedAllocs
{
    double fresh = 0.0;
    double warm = 0.0;
};

SchedAllocs
schedAllocsPerNode(const MachineDesc &machine, SchedulerKind kind)
{
    const std::vector<Dfg> suite = buildSuite(ceilingLoops);
    const ResourceModel model(machine);
    CompileOptions options;
    options.scheduler = kind;
    long fresh = 0;
    long warm = 0;
    long nodes = 0;
    for (const Dfg &loop : suite) {
        const CompileResult compiled =
            compileClustered(loop, machine, options);
        if (!compiled.success || compiled.degraded != DegradeLevel::None)
            continue;
        // One scheduler per loop and a fresh Schedule per call, as in
        // the driver's attempts.
        const std::unique_ptr<ModuloScheduler> scheduler =
            makeScheduler(kind);
        LoopContext ctx(compiled.loop.graph);
        Schedule first;
        long before = allocations;
        EXPECT_TRUE(scheduler->schedule(compiled.loop, model, compiled.ii,
                                        first, &ctx))
            << loop.name();
        fresh += allocations - before;
        Schedule again;
        before = allocations;
        EXPECT_TRUE(scheduler->schedule(compiled.loop, model, compiled.ii,
                                        again, &ctx))
            << loop.name();
        warm += allocations - before;
        nodes += compiled.loop.graph.numNodes();
    }
    EXPECT_GT(nodes, 0);
    const SchedAllocs perNode = {
        static_cast<double>(fresh) / static_cast<double>(nodes),
        static_cast<double>(warm) / static_cast<double>(nodes)};
    std::printf("%s %s: %.2f allocations per node fresh, %.2f warm\n",
                machine.name.c_str(),
                kind == SchedulerKind::Swing ? "sms" : "ims",
                perNode.fresh, perNode.warm);
    return perNode;
}

void
expectSchedUnderCeilings(const MachineDesc &machine, SchedulerKind kind)
{
    const SchedAllocs perNode = schedAllocsPerNode(machine, kind);
    EXPECT_LE(perNode.fresh, maxFreshSchedAllocsPerNode);
    EXPECT_LE(perNode.warm, maxWarmSchedAllocsPerNode);
}

/** Allocations per solver variable of ExactEncoder::encode at MII, in
 *  the fast and the certificate window, over the suite. */
double
encodeAllocsPerVar(const MachineDesc &machine)
{
    const std::vector<Dfg> suite = buildSuite(ceilingLoops);
    const ResourceModel model(machine);
    long total = 0;
    long vars = 0;
    for (const Dfg &loop : suite) {
        ExactEncoder encoder(loop, model);
        const int ii = computeMii(loop, machine.unifiedEquivalent()).mii;
        for (const int horizon :
             {encoder.fastHorizon(ii), encoder.soundHorizon(ii)}) {
            const long before = allocations;
            SatSolver solver;
            EXPECT_TRUE(encoder.encode(ii, horizon, solver)) << loop.name();
            total += allocations - before;
            vars += solver.numVars();
        }
    }
    EXPECT_GT(vars, 0);
    const double perVar =
        static_cast<double>(total) / static_cast<double>(vars);
    std::printf("%s: %.2f encode allocations per solver variable\n",
                machine.name.c_str(), perVar);
    return perVar;
}

TEST(AllocCeiling, CompileStaysUnderCeiling)
{
    for (const MachineDesc &machine :
         {busedGpMachine(2, 2, 1), busedGpMachine(4, 4, 2),
          busedFsMachine(2, 2, 1), busedFsMachine(4, 2, 2),
          gridMachine(2), busedGpMachine(8, 7, 3)}) {
        for (const SchedulerKind kind :
             {SchedulerKind::Swing, SchedulerKind::Iterative}) {
            EXPECT_LE(compileAllocsPerNode(machine, kind),
                      maxCompileAllocsPerNode);
        }
    }
}

TEST(AllocCeiling, DfgReaderStaysUnderCeiling)
{
    EXPECT_LE(readDfgAllocsPerLoop(), maxReadDfgAllocsPerLoop);
}

TEST(AllocCeiling, GridRerunStaysUnderCeiling)
{
    EXPECT_LE(warmAllocsPerNode(gridMachine(2)), maxAllocsPerNode);
}

TEST(AllocCeiling, EightClusterRerunStaysUnderCeiling)
{
    EXPECT_LE(warmAllocsPerNode(busedGpMachine(8, 7, 3)), maxAllocsPerNode);
}

TEST(AllocCeiling, GridSchedulerStaysUnderCeilings)
{
    expectSchedUnderCeilings(gridMachine(2), SchedulerKind::Swing);
    expectSchedUnderCeilings(gridMachine(2), SchedulerKind::Iterative);
}

TEST(AllocCeiling, EightClusterSchedulerStaysUnderCeilings)
{
    expectSchedUnderCeilings(busedGpMachine(8, 7, 3), SchedulerKind::Swing);
    expectSchedUnderCeilings(busedGpMachine(8, 7, 3),
                             SchedulerKind::Iterative);
}

TEST(AllocCeiling, ExactEncoderStaysUnderCeiling)
{
    EXPECT_LE(encodeAllocsPerVar(busedFsMachine(4, 2, 2)),
              maxEncodeAllocsPerVar);
    EXPECT_LE(encodeAllocsPerVar(busedGpMachine(4, 4, 2)),
              maxEncodeAllocsPerVar);
}

} // namespace
} // namespace cams
