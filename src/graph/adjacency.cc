#include "graph/adjacency.hh"

#include <algorithm>

namespace cams
{

Adjacency::Adjacency(const Dfg &graph)
{
    const int n = graph.numNodes();
    stride_ = n + 1;
    off_.assign(static_cast<size_t>(numRelations) * stride_, 0);
    ids_.reserve(2 * static_cast<size_t>(graph.numEdges()));
    edges_.reserve(2 * static_cast<size_t>(graph.numEdges()));
    auto offsets = [&](Relation relation) {
        return off_.data() + static_cast<size_t>(relation) * stride_;
    };

    // Neighbor rows, each sorted and deduplicated exactly like
    // Dfg::predecessors / Dfg::successors.
    for (const bool preds : {true, false}) {
        int *off = offsets(preds ? Pred : Succ);
        off[0] = static_cast<int>(ids_.size());
        for (NodeId v = 0; v < n; ++v) {
            const size_t first = ids_.size();
            const auto &edges = preds ? graph.inEdges(v) : graph.outEdges(v);
            for (EdgeId e : edges)
                ids_.push_back(preds ? graph.edge(e).src : graph.edge(e).dst);
            std::sort(ids_.begin() + first, ids_.end());
            ids_.erase(std::unique(ids_.begin() + first, ids_.end()),
                       ids_.end());
            off[v + 1] = static_cast<int>(ids_.size());
        }
    }

    // Edge rows as flat records, preserving Dfg edge order.
    for (const bool in : {true, false}) {
        int *off = offsets(in ? In : Out);
        off[0] = static_cast<int>(edges_.size());
        for (NodeId v = 0; v < n; ++v) {
            const auto &edges = in ? graph.inEdges(v) : graph.outEdges(v);
            for (EdgeId e : edges) {
                const DfgEdge &edge = graph.edge(e);
                edges_.push_back({in ? edge.src : edge.dst, edge.latency,
                                  edge.distance});
            }
            off[v + 1] = static_cast<int>(edges_.size());
        }
    }
}

} // namespace cams
