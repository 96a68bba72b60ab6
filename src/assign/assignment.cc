#include "assign/assignment.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

std::vector<PoolId>
AnnotatedLoop::request(const ResourceModel &model, NodeId node) const
{
    std::vector<PoolId> pools;
    requestInto(model, node, pools);
    return pools;
}

void
AnnotatedLoop::requestInto(const ResourceModel &model, NodeId node,
                           std::vector<PoolId> &out) const
{
    cams_assert(node >= 0 && node < graph.numNodes(), "bad node ", node);
    const OpPlacement &place = placement[node];
    if (graph.node(node).op == Opcode::Copy)
        model.copyRequestInto(place.cluster, place.copyDsts, out);
    else
        model.opRequestInto(place.cluster, graph.node(node).op, out);
}

bool
AnnotatedLoop::validate(const MachineDesc &machine, std::string *why) const
{
    auto fail = [&](const std::string &message) {
        if (why)
            *why = message;
        return false;
    };

    std::string reason;
    if (!graph.wellFormed(&reason))
        return fail("malformed graph: " + reason);
    if (static_cast<int>(placement.size()) != graph.numNodes())
        return fail("placement size mismatch");
    if (numOriginalNodes < 0 || numOriginalNodes > graph.numNodes())
        return fail("bad original node count");

    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        const OpPlacement &place = placement[v];
        const DfgNode &node = graph.node(v);
        if (place.cluster < 0 || place.cluster >= machine.numClusters())
            return fail("node " + node.name + " placed off-machine");
        if (node.op == Opcode::Copy) {
            if (!isCopy(v))
                return fail("original node with Copy opcode");
            if (place.copyDsts.empty())
                return fail("copy " + node.name + " with no destination");
            for (ClusterId dst : place.copyDsts) {
                if (dst < 0 || dst >= machine.numClusters() ||
                    dst == place.cluster) {
                    return fail("copy " + node.name +
                                " with bad destination");
                }
                if (!machine.broadcast() &&
                    machine.linkBetween(place.cluster, dst) < 0) {
                    return fail("copy " + node.name +
                                " crosses a missing link");
                }
            }
            if (!machine.broadcast() && place.copyDsts.size() != 1)
                return fail("point-to-point copy with multiple dsts");
        } else {
            if (isCopy(v))
                return fail("copy node with non-copy opcode");
            if (!place.copyDsts.empty())
                return fail("non-copy node with copy destinations");
            if (machine.fuCount(place.cluster, opcodeFuClass(node.op)) ==
                0) {
                return fail("node " + node.name +
                            " placed on a cluster lacking its unit");
            }
        }
    }

    // Every dependence must stay within a cluster unless its consumer
    // is served through a copy that lands on the consumer's cluster.
    for (const DfgEdge &edge : graph.edges()) {
        const OpPlacement &src = placement[edge.src];
        const OpPlacement &dst = placement[edge.dst];
        if (src.cluster == dst.cluster)
            continue;
        // A cross-cluster edge is only legal into a copy fed by the
        // source cluster's register file... which is the same cluster.
        // So the only legal cross-cluster edges are copy -> consumer
        // where the copy's destination set covers the consumer.
        if (graph.node(edge.src).op != Opcode::Copy) {
            return fail("edge " + graph.node(edge.src).name + " -> " +
                        graph.node(edge.dst).name +
                        " crosses clusters without a copy");
        }
        const auto &dsts = src.copyDsts;
        if (std::find(dsts.begin(), dsts.end(), dst.cluster) ==
            dsts.end()) {
            return fail("copy " + graph.node(edge.src).name +
                        " does not deliver to cluster " +
                        std::to_string(dst.cluster));
        }
    }

    if (why)
        why->clear();
    return true;
}

AnnotatedLoop
unifiedLoop(const Dfg &graph)
{
    AnnotatedLoop loop;
    loop.graph = graph;
    loop.numOriginalNodes = graph.numNodes();
    loop.placement.assign(graph.numNodes(), OpPlacement{0, {}});
    return loop;
}

} // namespace cams
