#include "graph/analysis.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

namespace
{

long
edgeWeight(const DfgEdge &edge, int ii)
{
    return static_cast<long>(edge.latency) -
           static_cast<long>(ii) * edge.distance;
}

} // namespace

TimeAnalysis
analyzeTiming(const Dfg &graph, int ii)
{
    cams_assert(ii >= 1, "analyzeTiming at ii ", ii);
    const int n = graph.numNodes();
    TimeAnalysis result;
    result.ii = ii;
    result.asap.assign(n, 0);

    // ASAP: longest path from the virtual source.
    bool changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (const DfgEdge &edge : graph.edges()) {
            const long cand = result.asap[edge.src] + edgeWeight(edge, ii);
            if (cand > result.asap[edge.dst]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result.asap[edge.dst] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    result.criticalPath = 0;
    for (NodeId v = 0; v < n; ++v) {
        result.criticalPath = std::max(
            result.criticalPath, result.asap[v] + graph.node(v).latency);
    }

    // Height: longest weighted path from the node to any sink plus the
    // sink's own latency. Edge weights already carry the producer's
    // result delay, so the recurrence is
    //   height(v) = max(lat(v), max over e=(v,s) of height(s) + w(e)).
    result.height.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        result.height[v] = graph.node(v).latency;
    changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (const DfgEdge &edge : graph.edges()) {
            const long cand =
                result.height[edge.dst] + edgeWeight(edge, ii);
            if (cand > result.height[edge.src]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result.height[edge.src] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    // ALAP: latest start keeping the critical-path length.
    result.alap.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        result.alap[v] = result.criticalPath - graph.node(v).latency;
    changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (const DfgEdge &edge : graph.edges()) {
            const long cand = result.alap[edge.dst] - edgeWeight(edge, ii);
            if (cand < result.alap[edge.src]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result.alap[edge.src] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    result.mobility.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
        result.mobility[v] = result.alap[v] - result.asap[v];
        cams_assert(result.mobility[v] >= 0, "negative mobility on node ",
                    v, " at II ", ii);
    }
    return result;
}

TimingSolver::TimingSolver(const Dfg &graph)
    : graph_(&graph)
{
    const int n = graph.numNodes();
    const int m = static_cast<int>(graph.edges().size());

    // Topological order of the distance-0 subgraph (Kahn). A
    // zero-distance cycle leaves nodes unplaced; they get trailing
    // positions -- the order only steers convergence speed, and
    // solve() still panics on such graphs exactly like analyzeTiming.
    std::vector<int> pos(n, 0); // in-degrees first, then positions
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.distance == 0 && edge.src != edge.dst)
            ++pos[edge.dst];
    }
    std::vector<int> work; // the queue, then the sort's buckets
    work.reserve(n + 1);
    for (NodeId v = 0; v < n; ++v) {
        if (pos[v] == 0)
            work.push_back(v);
    }
    for (size_t head = 0; head < work.size(); ++head) {
        const NodeId v = work[head];
        for (EdgeId e : graph.outEdges(v)) {
            const DfgEdge &edge = graph.edge(e);
            if (edge.distance != 0 || edge.dst == v)
                continue;
            if (--pos[edge.dst] == 0)
                work.push_back(edge.dst);
        }
    }
    std::fill(pos.begin(), pos.end(), -1);
    int next = 0;
    for (const NodeId v : work)
        pos[v] = next++;
    for (NodeId v = 0; v < n; ++v) {
        if (pos[v] < 0)
            pos[v] = next++;
    }

    // Stable counting sorts of the edges: ascending position of src,
    // descending position of dst.
    edgeOrder_.resize(2 * static_cast<size_t>(m));
    auto sortEdges = [&](EdgeId *out, auto key) {
        work.assign(n + 1, 0);
        for (const DfgEdge &edge : graph.edges())
            ++work[key(edge) + 1];
        for (int k = 0; k < n; ++k)
            work[k + 1] += work[k];
        for (const DfgEdge &edge : graph.edges())
            out[work[key(edge)]++] = edge.id;
    };
    sortEdges(edgeOrder_.data(),
              [&](const DfgEdge &edge) { return pos[edge.src]; });
    sortEdges(edgeOrder_.data() + m,
              [&](const DfgEdge &edge) { return n - 1 - pos[edge.dst]; });

    // Distance-0 fixpoints: with edges in topological order one pass
    // settles them, and they lower-bound the per-II fixpoints.
    seeds_.assign(2 * static_cast<size_t>(n), 0);
    int *asapSeed = seeds_.data();
    int *heightSeed = asapSeed + n;
    for (EdgeId e : forward()) {
        const DfgEdge &edge = graph.edge(e);
        if (edge.distance != 0)
            continue;
        asapSeed[edge.dst] =
            std::max(asapSeed[edge.dst], asapSeed[edge.src] + edge.latency);
    }
    for (NodeId v = 0; v < n; ++v)
        heightSeed[v] = graph.node(v).latency;
    for (EdgeId e : backward()) {
        const DfgEdge &edge = graph.edge(e);
        if (edge.distance != 0)
            continue;
        heightSeed[edge.src] = std::max(heightSeed[edge.src],
                                        heightSeed[edge.dst] + edge.latency);
    }
}

const TimeAnalysis &
TimingSolver::solve(int ii)
{
    cams_assert(ii >= 1, "analyzeTiming at ii ", ii);
    if (hasResult_ && result_.ii == ii) {
        lastWasHit_ = true;
        return result_;
    }
    lastWasHit_ = false;

    const Dfg &graph = *graph_;
    const int n = graph.numNodes();
    result_.ii = ii;

    result_.asap.assign(seeds_.begin(), seeds_.begin() + n);
    bool changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (EdgeId e : forward()) {
            const DfgEdge &edge = graph.edge(e);
            const long cand =
                result_.asap[edge.src] + edgeWeight(edge, ii);
            if (cand > result_.asap[edge.dst]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result_.asap[edge.dst] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    result_.criticalPath = 0;
    for (NodeId v = 0; v < n; ++v) {
        result_.criticalPath =
            std::max(result_.criticalPath,
                     result_.asap[v] + graph.node(v).latency);
    }

    result_.height.assign(seeds_.begin() + n, seeds_.end());
    changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (EdgeId e : backward()) {
            const DfgEdge &edge = graph.edge(e);
            const long cand =
                result_.height[edge.dst] + edgeWeight(edge, ii);
            if (cand > result_.height[edge.src]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result_.height[edge.src] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    result_.alap.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        result_.alap[v] = result_.criticalPath - graph.node(v).latency;
    changed = true;
    for (int round = 0; round <= n && changed; ++round) {
        changed = false;
        for (EdgeId e : backward()) {
            const DfgEdge &edge = graph.edge(e);
            const long cand =
                result_.alap[edge.dst] - edgeWeight(edge, ii);
            if (cand < result_.alap[edge.src]) {
                cams_assert(round < n,
                            "positive cycle: II ", ii, " < RecMII");
                result_.alap[edge.src] = static_cast<int>(cand);
                changed = true;
            }
        }
    }

    result_.mobility.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
        result_.mobility[v] = result_.alap[v] - result_.asap[v];
        cams_assert(result_.mobility[v] >= 0,
                    "negative mobility on node ", v, " at II ", ii);
    }
    hasResult_ = true;
    return result_;
}

} // namespace cams
