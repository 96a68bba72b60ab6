#include "transform/unroll.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"

namespace cams
{

Dfg
unrollLoop(const Dfg &graph, int factor)
{
    cams_assert(factor >= 1, "unroll factor must be positive");
    Dfg out;
    out.setName(graph.name() + "_x" + std::to_string(factor));
    const int n = graph.numNodes();

    for (int copy = 0; copy < factor; ++copy) {
        for (const DfgNode &node : graph.nodes()) {
            out.addNode(node.op, node.latency,
                        node.name + "_u" + std::to_string(copy));
        }
    }
    for (int copy = 0; copy < factor; ++copy) {
        for (const DfgEdge &edge : graph.edges()) {
            const int target = copy + edge.distance;
            const NodeId src = copy * n + edge.src;
            const NodeId dst = (target % factor) * n + edge.dst;
            out.addEdge(src, dst, edge.latency, target / factor);
        }
    }
    out.seal();
    return out;
}

ListScheduleResult
listSchedule(const Dfg &graph, const MachineDesc &machine)
{
    ListScheduleResult result;
    const int n = graph.numNodes();
    result.startCycle.assign(n, 0);
    if (n == 0) {
        result.success = true;
        return result;
    }

    // Critical-path priorities over the intra-body (distance 0) DAG.
    std::vector<int> height(n, 0);
    bool changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (const DfgEdge &edge : graph.edges()) {
            if (edge.distance != 0)
                continue;
            const int cand = height[edge.dst] + edge.latency;
            if (cand > height[edge.src]) {
                cams_assert(round < n, "zero-distance cycle");
                height[edge.src] = cand;
                changed = true;
            }
        }
    }

    // Unit availability per cycle, per FU class (GP machines pool).
    const bool gp = machine.cluster(0).usesGpPool();
    std::array<int, numFuClasses> units{};
    int gp_units = 0;
    if (gp) {
        gp_units = machine.totalWidth();
    } else {
        for (int cls = 0; cls < numFuClasses; ++cls) {
            for (ClusterId c = 0; c < machine.numClusters(); ++c)
                units[cls] += machine.fuCount(c, static_cast<FuClass>(
                                                     cls));
        }
    }
    std::vector<std::array<int, numFuClasses>> used;
    std::vector<int> used_gp;
    auto fits = [&](int cycle, FuClass cls) {
        if (static_cast<size_t>(cycle) >= used.size()) {
            used.resize(cycle + 1);
            used_gp.resize(cycle + 1, 0);
        }
        if (gp)
            return used_gp[cycle] < gp_units;
        return used[cycle][static_cast<int>(cls)] <
               units[static_cast<int>(cls)];
    };
    auto take = [&](int cycle, FuClass cls) {
        if (gp)
            ++used_gp[cycle];
        else
            ++used[cycle][static_cast<int>(cls)];
    };

    // Ready-list scheduling: highest critical path first.
    std::vector<int> pending(n, 0);
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.distance == 0)
            ++pending[edge.dst];
    }
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (pending[v] == 0)
            ready.push_back(v);
    }
    std::vector<int> earliest(n, 0);
    std::vector<bool> placed(n, false);
    int scheduled = 0;
    while (scheduled < n) {
        cams_assert(!ready.empty(), "list scheduler starved");
        auto best = std::max_element(
            ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
                if (height[a] != height[b])
                    return height[a] < height[b];
                return a > b;
            });
        const NodeId op = *best;
        ready.erase(best);

        const FuClass cls = opcodeFuClass(graph.node(op).op);
        int cycle = earliest[op];
        while (!fits(cycle, cls))
            ++cycle;
        take(cycle, cls);
        result.startCycle[op] = cycle;
        placed[op] = true;
        ++scheduled;
        result.length = std::max(result.length,
                                 cycle + graph.node(op).latency);

        for (const AdjEdge &edge : graph.outEdges(op)) {
            if (edge.distance != 0)
                continue;
            earliest[edge.node] = std::max(
                earliest[edge.node], cycle + edge.latency);
            if (--pending[edge.node] == 0)
                ready.push_back(edge.node);
        }
    }
    result.success = true;
    return result;
}

double
unrolledThroughput(const Dfg &graph, const MachineDesc &machine,
                   int factor)
{
    const Dfg body = unrollLoop(graph, factor);
    const ListScheduleResult schedule = listSchedule(body, machine);
    cams_assert(schedule.success, "list scheduling failed");

    // Back-to-back bodies: the restart interval is the makespan,
    // stretched if a carried dependence is still in flight.
    long restart = schedule.length;
    for (const DfgEdge &edge : body.edges()) {
        if (edge.distance == 0)
            continue;
        const long need = schedule.startCycle[edge.src] + edge.latency -
                          schedule.startCycle[edge.dst];
        const long per_round = (need + edge.distance - 1) / edge.distance;
        restart = std::max(restart, per_round);
    }
    return static_cast<double>(restart) / factor;
}

} // namespace cams
