#include "sched/stage.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace cams
{

namespace
{

/** Total lifetime with node v hypothetically starting at start_v. */
long
lifetimeContribution(const AnnotatedLoop &loop,
                     const std::vector<long> &start, int ii, NodeId v,
                     long start_v)
{
    const Dfg &graph = loop.graph;
    long total = 0;

    // v's own value: from start_v to its last consumer.
    if (!graph.outEdges(v).empty()) {
        long last = start_v;
        for (const AdjEdge &edge : graph.outEdges(v)) {
            const long use =
                (edge.node == v ? start_v : start[edge.node]) +
                static_cast<long>(ii) * edge.distance;
            last = std::max(last, use);
        }
        total += last - start_v;
    }

    // Producers for which v is a consumer: moving v can stretch or
    // shrink their lifetimes.
    for (const AdjEdge &edge : graph.inEdges(v)) {
        const NodeId u = edge.node;
        if (u == v)
            continue;
        long last = start[u];
        for (const AdjEdge &out : graph.outEdges(u)) {
            const long use =
                (out.node == v ? start_v : start[out.node]) +
                static_cast<long>(ii) * out.distance;
            last = std::max(last, use);
        }
        total += last - start[u];
    }
    return total;
}

long
totalLifetime(const AnnotatedLoop &loop, const std::vector<long> &start,
              int ii)
{
    long total = 0;
    const Dfg &graph = loop.graph;
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        if (graph.outEdges(v).empty())
            continue;
        long last = start[v];
        for (const AdjEdge &edge : graph.outEdges(v)) {
            last = std::max(last, start[edge.node] +
                                      static_cast<long>(ii) *
                                          edge.distance);
        }
        total += last - start[v];
    }
    return total;
}

} // namespace

StageScheduleResult
stageSchedule(const AnnotatedLoop &loop, const Schedule &schedule,
              int max_passes)
{
    const Dfg &graph = loop.graph;
    const int n = graph.numNodes();
    const int ii = schedule.ii;
    cams_assert(ii > 0, "stage scheduling an empty schedule");

    std::vector<long> start(n);
    for (NodeId v = 0; v < n; ++v)
        start[v] = schedule.startCycle[v];

    StageScheduleResult result;
    result.lifetimeBefore = totalLifetime(loop, start, ii);

    for (int pass = 0; pass < max_passes; ++pass) {
        bool changed = false;
        for (NodeId v = 0; v < n; ++v) {
            // Legal slide range in whole IIs.
            long delta_min = std::numeric_limits<long>::min() / 4;
            long delta_max = std::numeric_limits<long>::max() / 4;
            for (const AdjEdge &edge : graph.inEdges(v)) {
                if (edge.node == v)
                    continue;
                const long bound = start[edge.node] + edge.latency -
                                   static_cast<long>(ii) * edge.distance -
                                   start[v];
                // delta * ii >= bound
                const long need =
                    bound <= 0 ? -((-bound) / ii)
                               : (bound + ii - 1) / ii;
                delta_min = std::max(delta_min, need);
            }
            for (const AdjEdge &edge : graph.outEdges(v)) {
                if (edge.node == v)
                    continue;
                const long bound = start[edge.node] - edge.latency +
                                   static_cast<long>(ii) * edge.distance -
                                   start[v];
                // delta * ii <= bound
                const long cap = bound >= 0 ? bound / ii
                                            : -((-bound + ii - 1) / ii);
                delta_max = std::min(delta_max, cap);
            }
            if (delta_min > delta_max)
                continue; // fully pinned (e.g. inside a recurrence)

            // Pick the lifetime-minimizing slide; ties keep position.
            long best_delta = 0;
            long best_cost = lifetimeContribution(loop, start, ii, v,
                                                  start[v]);
            const long lo = std::max<long>(delta_min, -8);
            const long hi = std::min<long>(delta_max, 8);
            for (long delta = lo; delta <= hi; ++delta) {
                if (delta == 0)
                    continue;
                const long cost = lifetimeContribution(
                    loop, start, ii, v, start[v] + delta * ii);
                if (cost < best_cost) {
                    best_cost = cost;
                    best_delta = delta;
                }
            }
            if (best_delta != 0) {
                start[v] += best_delta * ii;
                ++result.moves;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    result.lifetimeAfter = totalLifetime(loop, start, ii);
    cams_assert(result.lifetimeAfter <= result.lifetimeBefore,
                "stage scheduling made lifetimes worse");

    result.schedule.ii = ii;
    result.schedule.startCycle.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        result.schedule.startCycle[v] = static_cast<int>(start[v]);
    result.schedule.normalize();
    return result;
}

} // namespace cams
