#include "sched/verifier.hh"

#include <vector>

#include "mrt/mrt.hh"
#include "support/logging.hh"

namespace cams
{

bool
verifySchedule(const AnnotatedLoop &loop, const ResourceModel &model,
               const Schedule &schedule, std::string *why)
{
    auto fail = [&](const std::string &message) {
        if (why)
            *why = message;
        return false;
    };

    if (schedule.ii <= 0)
        return fail("non-positive II");
    if (static_cast<int>(schedule.startCycle.size()) !=
        loop.graph.numNodes()) {
        return fail("schedule size mismatch");
    }

    std::string reason;
    if (!loop.validate(model.machine(), &reason))
        return fail("bad annotation: " + reason);

    for (const DfgEdge &edge : loop.graph.edges()) {
        const long lhs = schedule.startCycle[edge.dst];
        const long rhs = schedule.startCycle[edge.src] + edge.latency -
                         static_cast<long>(schedule.ii) * edge.distance;
        if (lhs < rhs) {
            return fail("dependence violated: " +
                        loop.graph.node(edge.src).name + " -> " +
                        loop.graph.node(edge.dst).name);
        }
    }

    // Replay every request into per-(pool, row) slot counts: one table
    // and one request buffer, whatever the loop's size.
    const int ii = schedule.ii;
    std::vector<int> used(static_cast<size_t>(model.numPools()) * ii, 0);
    std::vector<PoolId> request;
    request.reserve(2 + model.machine().numClusters());
    for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
        loop.requestInto(model, v, request);
        const int row = schedule.row(v);
        bool fits = true;
        for (PoolId pool : request) {
            if (++used[static_cast<size_t>(pool) * ii + row] >
                model.capacity(pool))
                fits = false;
        }
        if (!fits) {
            return fail("resource overflow at row " + std::to_string(row) +
                        " for " + loop.graph.node(v).name);
        }
    }

    if (why)
        why->clear();
    return true;
}

} // namespace cams
