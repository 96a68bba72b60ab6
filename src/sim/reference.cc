#include "sim/reference.hh"

#include <algorithm>

#include "graph/scc.hh"
#include "support/logging.hh"

namespace cams
{

ReferenceTrace::ReferenceTrace(const Dfg &graph, int iterations)
    : graph_(graph), iterations_(iterations)
{
    cams_assert(iterations >= 0, "negative iteration count");
    const int n = graph.numNodes();
    for (const DfgNode &node : graph.nodes()) {
        if (node.op == Opcode::Copy)
            cams_fatal("reference execution of an annotated graph");
    }
    values_.assign(static_cast<size_t>(iterations) * n, 0);

    // Within one iteration, nodes must be evaluated in dependence
    // order over the distance-0 edges (which are acyclic in a
    // well-formed loop). Kahn topological sort on the dist-0 subgraph.
    std::vector<int> pending(n, 0);
    for (const DfgEdge &edge : graph.edges()) {
        if (edge.distance == 0)
            ++pending[edge.dst];
    }
    std::vector<NodeId> topo;
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (pending[v] == 0)
            ready.push_back(v);
    }
    while (!ready.empty()) {
        const NodeId v = ready.back();
        ready.pop_back();
        topo.push_back(v);
        for (const AdjEdge &edge : graph.outEdges(v)) {
            if (edge.distance == 0 && --pending[edge.node] == 0)
                ready.push_back(edge.node);
        }
    }
    if (static_cast<int>(topo.size()) != n)
        cams_fatal("zero-distance dependence cycle in the loop");

    std::vector<SimValue> inputs;
    for (long iter = 0; iter < iterations; ++iter) {
        for (NodeId v : topo) {
            inputs.clear();
            for (const AdjEdge &edge : graph.inEdges(v)) {
                const long src_iter = iter - edge.distance;
                inputs.push_back(src_iter < 0
                                     ? liveInValue(edge.node, src_iter)
                                     : value(edge.node, src_iter));
            }
            values_[static_cast<size_t>(iter) * n + v] =
                applyOp(graph.node(v).op, v, inputs);
        }
    }
}

SimValue
ReferenceTrace::value(NodeId node, long iteration) const
{
    cams_assert(node >= 0 && node < graph_.numNodes(), "bad node");
    if (iteration < 0)
        return liveInValue(node, iteration);
    cams_assert(iteration < iterations_, "iteration out of range");
    return values_[static_cast<size_t>(iteration) * graph_.numNodes() +
                   node];
}

} // namespace cams
