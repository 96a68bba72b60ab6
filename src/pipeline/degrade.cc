#include "pipeline/degrade.hh"

#include <algorithm>
#include <set>
#include <vector>

namespace cams
{

std::optional<DegradedCompile>
degradeToSingleCluster(const Dfg &graph, const ResourceModel &model)
{
    const MachineDesc &machine = model.machine();
    const int n = graph.numNodes();
    if (n == 0)
        return std::nullopt;
    for (const DfgNode &node : graph.nodes()) {
        if (node.op == Opcode::Copy)
            return std::nullopt;
        if (machine.fuCount(0, opcodeFuClass(node.op)) == 0)
            return std::nullopt;
    }

    // Kahn topological order over the intra-iteration edges; the
    // smallest ready id goes first so the order is deterministic.
    std::vector<int> indegree(n, 0);
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.distance != 0)
            continue;
        if (edge.src == edge.dst)
            return std::nullopt; // distance-0 self loop
        ++indegree[edge.dst];
    }
    std::set<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (indegree[v] == 0)
            ready.insert(v);
    }
    std::vector<NodeId> order;
    while (!ready.empty()) {
        const NodeId v = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(v);
        for (const AdjEdge &edge : graph.outEdges(v)) {
            if (edge.distance != 0 || edge.node == v)
                continue;
            if (--indegree[edge.node] == 0)
                ready.insert(edge.node);
        }
    }
    if (static_cast<int>(order.size()) != n)
        return std::nullopt; // distance-0 cycle

    // One operation per cycle, dependences already in front of us.
    // Strictly increasing start cycles mean one op per kernel row.
    std::vector<int> start(n, 0);
    int prev = -1;
    for (NodeId v : order) {
        int at = prev + 1;
        for (const AdjEdge &edge : graph.inEdges(v)) {
            if (edge.distance != 0)
                continue;
            at = std::max(at, start[edge.node] + edge.latency);
        }
        start[v] = at;
        prev = at;
    }

    // II large enough that every carried dependence (distance >= 1)
    // holds: start(dst) + II * dist >= start(src) + latency for any
    // pair once II > max start + max latency.
    int max_latency = 1;
    for (const DfgEdge &edge : graph.edges())
        max_latency = std::max(max_latency, edge.latency);

    DegradedCompile out;
    out.loop = unifiedLoop(graph);
    out.schedule.ii = prev + max_latency + 1;
    out.schedule.startCycle.assign(start.begin(), start.end());
    return out;
}

} // namespace cams
