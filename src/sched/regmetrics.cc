#include "sched/regmetrics.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"

namespace cams
{

RegMetrics
computeRegMetrics(const AnnotatedLoop &loop, const Schedule &schedule)
{
    RegMetrics metrics;
    const Dfg &graph = loop.graph;
    const int ii = schedule.ii;
    cams_assert(ii > 0, "metrics on an empty schedule");

    std::vector<long> live_per_row(ii, 0);

    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        const long def = schedule.startCycle[v];
        long last_use = def;
        for (const AdjEdge &edge : graph.outEdges(v)) {
            last_use = std::max(
                last_use, static_cast<long>(schedule.startCycle[edge.node]) +
                              static_cast<long>(ii) * edge.distance);
        }
        const long lifetime = last_use - def;
        metrics.totalLifetime += lifetime;
        if (lifetime > 0) {
            metrics.mveFactor = std::max(
                metrics.mveFactor,
                static_cast<int>((lifetime + ii - 1) / ii));
        }

        // The value occupies rows def .. last_use - 1 (inclusive),
        // wrapping; full wraps add 1 to every row.
        const long full = lifetime / ii;
        for (int r = 0; r < ii; ++r)
            live_per_row[r] += full;
        const long rem = lifetime % ii;
        for (long t = def; t < def + rem; ++t) {
            const int r = static_cast<int>(((t % ii) + ii) % ii);
            ++live_per_row[r];
        }
    }

    for (int r = 0; r < ii; ++r) {
        metrics.maxLive = std::max(metrics.maxLive,
                                   static_cast<int>(live_per_row[r]));
    }
    return metrics;
}

} // namespace cams
