/**
 * @file
 * Packed adjacency view of a Dfg.
 *
 * Dfg::predecessors / Dfg::successors build a fresh sorted-unique
 * vector on every call, which the assigner's candidate evaluation
 * invokes for every (node, cluster) probe -- millions of short-lived
 * allocations per compile. An Adjacency materializes both neighbor
 * relations once into CSR arrays so hot paths can read them as spans.
 *
 * Neighbor lists are byte-identical to the Dfg queries (same sort,
 * same dedup), so a caller switching between the two sees the same
 * iteration order (tests/graph_test.cc checks this on the suite).
 */

#ifndef CAMS_GRAPH_ADJACENCY_HH
#define CAMS_GRAPH_ADJACENCY_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"

namespace cams
{

/** One dependence edge as seen from one endpoint: the other node plus
 *  the payload the schedulers read (latency, iteration distance). */
struct AdjEdge
{
    NodeId node;
    int latency;
    int distance;
};

/** CSR snapshot of a graph's neighbor relations (not auto-updated:
 *  rebuild after mutating the graph). */
class Adjacency
{
  public:
    Adjacency() = default;

    /** Builds both relations; O(V + E log E). */
    explicit Adjacency(const Dfg &graph);

    /** Distinct sources of in-edges, ascending (= predecessors()). */
    std::span<const NodeId> preds(NodeId node) const
    {
        return row(ids_, Pred, node);
    }

    /** Distinct targets of out-edges, ascending (= successors()). */
    std::span<const NodeId> succs(NodeId node) const
    {
        return row(ids_, Succ, node);
    }

    /** In-edges of node (edge.node = source), in Dfg::inEdges order.
     *  One flat record per edge, so scheduling-window scans touch a
     *  single contiguous array instead of chasing edge ids. */
    std::span<const AdjEdge> inEdges(NodeId node) const
    {
        return row(edges_, In, node);
    }

    /** Out-edges of node (edge.node = target), Dfg::outEdges order. */
    std::span<const AdjEdge> outEdges(NodeId node) const
    {
        return row(edges_, Out, node);
    }

    int numNodes() const { return stride_ - 1; }

  private:
    /** The four relations; each owns numNodes() + 1 offsets. */
    enum Relation
    {
        Pred,
        Succ,
        In,
        Out,
        numRelations
    };

    template <typename T>
    std::span<const T> row(const std::vector<T> &flat, Relation relation,
                           NodeId node) const
    {
        const int *off =
            off_.data() + static_cast<size_t>(relation) * stride_;
        return {flat.data() + off[node], flat.data() + off[node + 1]};
    }

    /** Offsets per relation: numNodes() + 1. */
    int stride_ = 0;
    /** Offsets of all four relations, relation after relation. */
    std::vector<int> off_;
    /** Neighbor ids: every node's predecessors, then its successors. */
    std::vector<NodeId> ids_;
    /** Edge records: every node's in-edges, then its out-edges. */
    std::vector<AdjEdge> edges_;
};

} // namespace cams

#endif // CAMS_GRAPH_ADJACENCY_HH
