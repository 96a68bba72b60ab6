#include "graph/dfg.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace cams
{

NodeId
Dfg::addNode(Opcode op, int latency, std::string name)
{
    off_.clear(); // unseals
    DfgNode node;
    node.id = static_cast<NodeId>(nodes_.size());
    node.op = op;
    node.latency = latency < 0 ? opcodeLatency(op) : latency;
    node.name = std::move(name);
    if (node.name.empty())
        node.name = opcodeName(op) + std::to_string(node.id);
    nodes_.push_back(node);
    return node.id;
}

EdgeId
Dfg::addEdge(NodeId src, NodeId dst, int latency, int distance)
{
    cams_assert(src >= 0 && src < numNodes(), "bad edge src ", src);
    cams_assert(dst >= 0 && dst < numNodes(), "bad edge dst ", dst);
    cams_assert(distance >= 0, "negative edge distance");
    off_.clear(); // unseals
    DfgEdge edge;
    edge.id = static_cast<EdgeId>(edges_.size());
    edge.src = src;
    edge.dst = dst;
    edge.latency = latency < 0 ? nodes_[src].latency : latency;
    edge.distance = distance;
    edges_.push_back(edge);
    return edge.id;
}

void
Dfg::reserve(int nodes, int edges)
{
    nodes_.reserve(nodes);
    edges_.reserve(edges);
}

void
Dfg::seal()
{
    const int n = numNodes();
    const int m = numEdges();
    const size_t stride = static_cast<size_t>(n) + 1;
    off_.assign(numRelations * stride, 0);
    int *in = off_.data() + In * stride;
    int *out = off_.data() + Out * stride;
    int *pred = off_.data() + Pred * stride;
    int *succ = off_.data() + Succ * stride;

    // Edge rows: a counting sort by target (in-rows) and by source
    // (out-rows, after all in-rows). Filling in id order keeps every
    // row in edge-id order; the neighbour offsets serve as the fill
    // cursors until their own rows are built.
    for (const DfgEdge &edge : edges_) {
        ++in[edge.dst + 1];
        ++out[edge.src + 1];
    }
    out[0] = m;
    for (NodeId v = 0; v < n; ++v) {
        in[v + 1] += in[v];
        out[v + 1] += out[v];
    }
    std::copy(in, in + n, pred);
    std::copy(out, out + n, succ);
    adj_.resize(2 * static_cast<size_t>(m));
    for (const DfgEdge &edge : edges_) {
        adj_[pred[edge.dst]++] = {edge.id, edge.src, edge.latency,
                                  edge.distance};
        adj_[succ[edge.src]++] = {edge.id, edge.dst, edge.latency,
                                  edge.distance};
    }

    // Neighbour rows: the other endpoints of each edge row, sorted
    // and deduplicated.
    nbr_.resize(2 * static_cast<size_t>(m));
    int fill = 0;
    for (const auto &[edges, rows] :
         {std::pair{in, pred}, std::pair{out, succ}}) {
        rows[0] = fill;
        for (NodeId v = 0; v < n; ++v) {
            const auto first = nbr_.begin() + fill;
            for (int i = edges[v]; i < edges[v + 1]; ++i)
                nbr_[fill++] = adj_[i].node;
            std::sort(first, nbr_.begin() + fill);
            fill = static_cast<int>(
                std::unique(first, nbr_.begin() + fill) - nbr_.begin());
            rows[v + 1] = fill;
        }
    }
    nbr_.resize(fill);
}

void
Dfg::badRow(NodeId id) const
{
    cams_assert(sealed(), "query on an unsealed graph; seal() it first");
    cams_panic("bad node id ", id);
}

const DfgNode &
Dfg::node(NodeId id) const
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return nodes_[id];
}

DfgNode &
Dfg::node(NodeId id)
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return nodes_[id];
}

const DfgEdge &
Dfg::edge(EdgeId id) const
{
    cams_assert(id >= 0 && id < numEdges(), "bad edge id ", id);
    return edges_[id];
}

int
Dfg::totalLatency() const
{
    int total = 0;
    for (const auto &node : nodes_)
        total += node.latency;
    return total;
}

bool
Dfg::wellFormed(std::string *why) const
{
    for (const auto &edge : edges_) {
        if (edge.src < 0 || edge.src >= numNodes() || edge.dst < 0 ||
            edge.dst >= numNodes()) {
            if (why)
                *why = "edge endpoint out of range";
            return false;
        }
        if (edge.distance < 0) {
            if (why)
                *why = "negative distance";
            return false;
        }
        if (edge.latency < 0) {
            if (why)
                *why = "negative latency";
            return false;
        }
    }
    for (const auto &node : nodes_) {
        if (node.latency < 0) {
            if (why)
                *why = "negative node latency";
            return false;
        }
    }
    return true;
}

} // namespace cams
