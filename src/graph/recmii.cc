#include "graph/recmii.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace cams
{

bool
hasPositiveCycle(const Dfg &graph, const std::vector<NodeId> &members,
                 int ii)
{
    const int n = static_cast<int>(members.size());
    if (n == 0)
        return false;

    // Map global node ids to local indices.
    std::vector<int> local(graph.numNodes(), -1);
    for (int i = 0; i < n; ++i)
        local[members[i]] = i;

    struct LocalEdge
    {
        int src;
        int dst;
        long weight;
    };
    std::vector<LocalEdge> edges;
    size_t out_degree = 0;
    for (NodeId node : members)
        out_degree += graph.outEdges(node).size();
    edges.reserve(out_degree);
    for (NodeId node : members) {
        for (EdgeId e : graph.outEdges(node)) {
            const DfgEdge &edge = graph.edge(e);
            if (local[edge.dst] == -1)
                continue;
            edges.push_back({local[edge.src], local[edge.dst],
                             static_cast<long>(edge.latency) -
                                 static_cast<long>(ii) * edge.distance});
        }
    }

    // Longest-path Bellman-Ford from a virtual source at distance 0 to
    // every node; if an edge can still relax after n rounds, a positive
    // cycle exists.
    std::vector<long> dist(n, 0);
    for (int round = 0; round < n; ++round) {
        bool changed = false;
        for (const auto &edge : edges) {
            if (dist[edge.src] + edge.weight > dist[edge.dst]) {
                dist[edge.dst] = dist[edge.src] + edge.weight;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    for (const auto &edge : edges) {
        if (dist[edge.src] + edge.weight > dist[edge.dst])
            return true;
    }
    return false;
}

int
sccRecMii(const Dfg &graph, const std::vector<NodeId> &members)
{
    if (members.size() == 1) {
        // Trivial unless it has self-edges.
        NodeId only = members[0];
        int best = 1;
        bool has_self = false;
        for (EdgeId e : graph.outEdges(only)) {
            const DfgEdge &edge = graph.edge(e);
            if (edge.dst != only)
                continue;
            has_self = true;
            if (edge.distance == 0) {
                cams_fatal("zero-distance self dependence on node ", only,
                           " (", graph.node(only).name, ")");
            }
            const int need =
                (edge.latency + edge.distance - 1) / edge.distance;
            best = std::max(best, need);
        }
        return has_self ? best : 1;
    }

    // Any cycle has total distance >= 1, so its latency/distance ratio
    // is bounded by the sum of all edge latencies inside the SCC.
    std::vector<int> local(graph.numNodes(), -1);
    for (NodeId node : members)
        local[node] = 1;
    int hi = 1;
    for (NodeId node : members) {
        for (EdgeId e : graph.outEdges(node)) {
            if (local[graph.edge(e).dst] != -1)
                hi += graph.edge(e).latency;
        }
    }

    if (hasPositiveCycle(graph, members, hi)) {
        cams_fatal("dependence cycle with zero total distance through "
                   "node ", members[0], "; no II can schedule this loop");
    }

    int lo = 1;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (hasPositiveCycle(graph, members, mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

bool
hasZeroDistanceCycle(const Dfg &graph)
{
    // Peel nodes with no pending distance-0 in-edge; whatever never
    // peels lies on (or behind) a distance-0 cycle.
    std::vector<int> pending(graph.numNodes(), 0);
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.distance == 0)
            ++pending[edge.dst];
    }
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        if (pending[v] == 0)
            ready.push_back(v);
    }
    int peeled = 0;
    while (!ready.empty()) {
        const NodeId v = ready.back();
        ready.pop_back();
        ++peeled;
        for (EdgeId e : graph.outEdges(v)) {
            const DfgEdge &edge = graph.edge(e);
            if (edge.distance == 0 && --pending[edge.dst] == 0)
                ready.push_back(edge.dst);
        }
    }
    return peeled < graph.numNodes();
}

int
recMii(const Dfg &graph, const SccInfo &sccs)
{
    int best = 1;
    for (int c = 0; c < sccs.numComponents(); ++c) {
        if (!sccs.nonTrivial[c])
            continue;
        best = std::max(best, sccRecMii(graph, sccs.components[c]));
    }
    return best;
}

int
recMii(const Dfg &graph)
{
    const SccInfo sccs = findSccs(graph);
    return recMii(graph, sccs);
}

} // namespace cams
