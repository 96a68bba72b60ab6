/**
 * @file
 * google-benchmark microbenchmarks of the compiler's building blocks:
 * SCC decomposition, RecMII, swing ordering, MRT operations, cluster
 * assignment and the two schedulers, over generated loops of several
 * sizes.
 */

#include <benchmark/benchmark.h>

#include "assign/assigner.hh"
#include "frontend/parser.hh"
#include "graph/recmii.hh"
#include "graph/scc.hh"
#include "machine/configs.hh"
#include "order/swing_order.hh"
#include "pipeline/driver.hh"
#include "sched/mii.hh"
#include "sim/compare.hh"
#include "workload/generator.hh"

namespace
{

using namespace cams;

Dfg
loopOfSize(int target_nodes)
{
    // Deterministically pick a seed whose loop lands near the target.
    GeneratorParams params;
    params.minNodes = target_nodes;
    params.maxNodes = target_nodes;
    return generateLoop(42, params);
}

void
BM_SccDecomposition(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(findSccs(graph));
}
BENCHMARK(BM_SccDecomposition)->Arg(16)->Arg(64)->Arg(161);

void
BM_RecMii(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(recMii(graph));
}
BENCHMARK(BM_RecMii)->Arg(16)->Arg(64)->Arg(161);

void
BM_SwingOrder(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const int ii = recMii(graph);
    for (auto _ : state)
        benchmark::DoNotOptimize(swingOrder(graph, ii));
}
BENCHMARK(BM_SwingOrder)->Arg(16)->Arg(64)->Arg(161);

void
BM_MrtOccupyFree(benchmark::State &state)
{
    const ResourceModel model(busedGpMachine(4, 4, 2));
    Mrt mrt(model, static_cast<int>(state.range(0)));
    std::vector<PoolId> request;
    model.copyRequestInto(0, std::vector<ClusterId>{1, 2}, request);
    for (auto _ : state) {
        const int row = mrt.findRow(request);
        benchmark::DoNotOptimize(row);
        if (row >= 0) {
            mrt.occupy(request, row);
            mrt.free(request, row);
        }
    }
}
BENCHMARK(BM_MrtOccupyFree)->Arg(4)->Arg(16)->Arg(64);

void
BM_ClusterAssignment(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(4, 4, 2);
    const ResourceModel model(machine);
    const MiiInfo mii = computeMii(graph, machine.unifiedEquivalent());
    const ClusterAssigner assigner(model);
    for (auto _ : state) {
        // Assign at a comfortable II so the benchmark measures the
        // normal path, not failure handling.
        benchmark::DoNotOptimize(assigner.run(graph, mii.mii + 2));
    }
}
BENCHMARK(BM_ClusterAssignment)->Arg(16)->Arg(64)->Arg(161);

void
BM_CompileClusteredSwing(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileClustered(graph, machine));
}
BENCHMARK(BM_CompileClusteredSwing)->Arg(16)->Arg(64)->Arg(161);

void
BM_CompileClusteredIms(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    CompileOptions options;
    options.scheduler = SchedulerKind::Iterative;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compileClustered(graph, machine, options));
    }
}
BENCHMARK(BM_CompileClusteredIms)->Arg(16)->Arg(64)->Arg(161);

void
BM_FrontendParse(benchmark::State &state)
{
    const std::string source =
        "loop bench { t = (a[i-1] + a[i] + a[i+1]) / 3.0; y[i] = t; "
        "s += t * t; x[i] = z[i] * (y0 - x[i-1]); }";
    for (auto _ : state) {
        Dfg graph;
        std::string error;
        benchmark::DoNotOptimize(parseLoopSource(source, graph, error));
    }
}
BENCHMARK(BM_FrontendParse);

void
BM_VliwSimulation(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const CompileResult result = compileClustered(graph, machine);
    if (!result.success) {
        state.SkipWithError("compilation failed");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(checkEquivalence(
            graph, result.loop, result.schedule, machine, 8));
    }
}
BENCHMARK(BM_VliwSimulation)->Arg(16)->Arg(64);

void
BM_CompileUnified(benchmark::State &state)
{
    const Dfg graph = loopOfSize(static_cast<int>(state.range(0)));
    const MachineDesc machine = unifiedGpMachine(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileUnified(graph, machine));
}
BENCHMARK(BM_CompileUnified)->Arg(16)->Arg(64)->Arg(161);

} // namespace

BENCHMARK_MAIN();
