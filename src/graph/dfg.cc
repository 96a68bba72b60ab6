#include "graph/dfg.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

NodeId
Dfg::addNode(Opcode op, int latency, std::string name)
{
    DfgNode node;
    node.id = static_cast<NodeId>(nodes_.size());
    node.op = op;
    node.latency = latency < 0 ? opcodeLatency(op) : latency;
    node.name = std::move(name);
    if (node.name.empty())
        node.name = opcodeName(op) + std::to_string(node.id);
    nodes_.push_back(node);
    out_.emplace_back();
    in_.emplace_back();
    return node.id;
}

EdgeId
Dfg::addEdge(NodeId src, NodeId dst, int latency, int distance)
{
    cams_assert(src >= 0 && src < numNodes(), "bad edge src ", src);
    cams_assert(dst >= 0 && dst < numNodes(), "bad edge dst ", dst);
    cams_assert(distance >= 0, "negative edge distance");
    DfgEdge edge;
    edge.id = static_cast<EdgeId>(edges_.size());
    edge.src = src;
    edge.dst = dst;
    edge.latency = latency < 0 ? nodes_[src].latency : latency;
    edge.distance = distance;
    edges_.push_back(edge);
    out_[src].push_back(edge.id);
    in_[dst].push_back(edge.id);
    return edge.id;
}

void
Dfg::reserve(int nodes, int edges)
{
    nodes_.reserve(nodes);
    out_.reserve(nodes);
    in_.reserve(nodes);
    edges_.reserve(edges);
}

void
Dfg::reserveEdges(NodeId id, int in, int out)
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    in_[id].reserve(in);
    out_[id].reserve(out);
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

const std::vector<EdgeId> &
Dfg::outEdges(NodeId id) const
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return out_[id];
}

const std::vector<EdgeId> &
Dfg::inEdges(NodeId id) const
{
    cams_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return in_[id];
}

std::vector<NodeId>
Dfg::successors(NodeId id) const
{
    std::vector<NodeId> result;
    for (EdgeId e : outEdges(id))
        result.push_back(edges_[e].dst);
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

std::vector<NodeId>
Dfg::predecessors(NodeId id) const
{
    std::vector<NodeId> result;
    for (EdgeId e : inEdges(id))
        result.push_back(edges_[e].src);
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
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
