#include "graph/recmii.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace cams
{

namespace
{

/**
 * The subgraph induced by a node set, its edges weighing
 * lat(e) - ii * dist(e), built once and tested at any number of IIs.
 * Distances are indexed by node id; a node outside the set keeps the
 * `outside` mark, which is how the edges into it are skipped.
 */
class InducedCycles
{
  public:
    InducedCycles(const Dfg &graph, std::span<const NodeId> members)
        : members_(members), dist_(graph.numNodes(), outside)
    {
        size_t out_degree = 0;
        for (NodeId node : members) {
            dist_[node] = 0;
            out_degree += graph.outEdges(node).size();
        }
        edges_.reserve(out_degree);
        for (NodeId node : members) {
            for (const AdjEdge &edge : graph.outEdges(node)) {
                if (dist_[edge.node] != outside)
                    edges_.push_back(graph.edge(edge.id));
            }
        }
    }

    /** Sum of the induced edges' latencies. */
    int
    latencySum() const
    {
        int sum = 0;
        for (const DfgEdge &edge : edges_)
            sum += edge.latency;
        return sum;
    }

    /**
     * Longest-path Bellman-Ford from a virtual source at distance 0
     * to every member; if an edge can still relax after n rounds, a
     * positive cycle exists.
     */
    bool
    positiveAt(int ii)
    {
        const int n = static_cast<int>(members_.size());
        if (n == 0)
            return false;
        for (NodeId node : members_)
            dist_[node] = 0;
        for (int round = 0; round < n; ++round) {
            bool changed = false;
            for (const DfgEdge &edge : edges_) {
                const long cand = dist_[edge.src] + weight(edge, ii);
                if (cand > dist_[edge.dst]) {
                    dist_[edge.dst] = cand;
                    changed = true;
                }
            }
            if (!changed)
                return false;
        }
        for (const DfgEdge &edge : edges_) {
            if (dist_[edge.src] + weight(edge, ii) > dist_[edge.dst])
                return true;
        }
        return false;
    }

  private:
    static constexpr long outside = std::numeric_limits<long>::min();

    static long
    weight(const DfgEdge &edge, int ii)
    {
        return static_cast<long>(edge.latency) -
               static_cast<long>(ii) * edge.distance;
    }

    std::span<const NodeId> members_;
    std::vector<long> dist_;
    std::vector<DfgEdge> edges_;
};

} // namespace

bool
hasPositiveCycle(const Dfg &graph, std::span<const NodeId> members, int ii)
{
    return InducedCycles(graph, members).positiveAt(ii);
}

int
sccRecMii(const Dfg &graph, std::span<const NodeId> members)
{
    if (members.size() == 1) {
        // Trivial unless it has self-edges.
        NodeId only = members[0];
        int best = 1;
        bool has_self = false;
        for (const AdjEdge &edge : graph.outEdges(only)) {
            if (edge.node != only)
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
    InducedCycles cycles(graph, members);
    int hi = 1 + cycles.latencySum();

    if (cycles.positiveAt(hi)) {
        cams_fatal("dependence cycle with zero total distance through "
                   "node ", members[0], "; no II can schedule this loop");
    }

    int lo = 1;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (cycles.positiveAt(mid))
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
        for (const AdjEdge &edge : graph.outEdges(v)) {
            if (edge.distance == 0 && --pending[edge.node] == 0)
                ready.push_back(edge.node);
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
        best = std::max(best, sccRecMii(graph, sccs.component(c)));
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
