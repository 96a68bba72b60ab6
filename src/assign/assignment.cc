#include "assign/assignment.hh"

#include <algorithm>
#include <bit>
#include <ranges>
#include <string>

#include "assign/router.hh"
#include "support/logging.hh"

namespace cams
{

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

namespace
{

/** The clusters of a value's consumers on other clusters, as a mask. */
uint64_t
remoteConsumers(const Dfg &graph, std::span<const ClusterId> clusterOf,
                NodeId value)
{
    uint64_t clusters = 0;
    for (NodeId succ : graph.successors(value)) {
        if (clusterOf[succ] != clusterOf[value])
            clusters |= uint64_t{1} << clusterOf[succ];
    }
    return clusters;
}

} // namespace

AnnotatedLoop
spliceCopies(const Dfg &graph, std::span<const ClusterId> clusterOf,
             const ResourceModel &model)
{
    const int n = graph.numNodes();
    const bool bused = model.machine().broadcast();
    cams_check(clusterOf.size() == static_cast<size_t>(n), "splicing ",
               clusterOf.size(), " clusters into ", n, " nodes");
    for (NodeId v = 0; v < n; ++v) {
        cams_check(clusterOf[v] >= 0 &&
                       clusterOf[v] < model.machine().numClusters(),
                   "splicing node ", v, " onto cluster ", clusterOf[v]);
    }

    // The clusters a value's copies land on: its consumers' on a bus,
    // every cluster of the tree paths to them over links.
    auto landings = [&](NodeId value) {
        const uint64_t dsts = remoteConsumers(graph, clusterOf, value);
        if (bused || dsts == 0)
            return dsts;
        return hopTargets(model.hopTree(clusterOf[value]), dsts);
    };
    int copies = 0;
    for (NodeId value = 0; value < n; ++value) {
        const uint64_t lands = landings(value);
        copies += bused ? lands != 0 : std::popcount(lands);
    }

    AnnotatedLoop loop;
    loop.numOriginalNodes = n;
    loop.graph.setName(graph.name());
    loop.graph.reserve(n + copies, graph.numEdges() + copies);
    loop.placement.reserve(n + copies);
    for (const DfgNode &node : graph.nodes()) {
        loop.graph.addNode(node.op, node.latency, node.name);
        loop.placement.push_back({clusterOf[node.id], {}});
    }

    // Copy n + k is fed by edge k, from its value or, in a hop chain,
    // from the copy on its tree parent.
    NodeId landed[maxClusters] = {};
    for (NodeId value = 0; value < n; ++value) {
        const uint64_t lands = landings(value);
        if (lands == 0)
            continue;
        const ClusterId src = clusterOf[value];
        const int latency = graph.node(value).latency;
        const std::string base = "cp_" + graph.node(value).name;
        if (bused) {
            std::vector<ClusterId> dsts;
            dsts.reserve(std::popcount(lands));
            for (uint64_t rest = lands; rest != 0; rest &= rest - 1)
                dsts.push_back(std::countr_zero(rest));
            const NodeId copy = loop.graph.addNode(Opcode::Copy, 1, base);
            loop.placement.push_back({src, std::move(dsts)});
            loop.graph.addEdge(value, copy, latency, 0);
            continue;
        }
        // The tree order puts a hop's parent first, so the copy that
        // lands there already exists.
        const HopTree &tree = model.hopTree(src);
        for (ClusterId to : tree.order) {
            if (!((lands >> to) & 1))
                continue;
            const ClusterId from = tree.parent[to];
            const NodeId copy = loop.graph.addNode(
                Opcode::Copy, 1, base + "_" + std::to_string(to));
            loop.placement.push_back({from, {to}});
            if (from == src)
                loop.graph.addEdge(value, copy, latency, 0);
            else
                loop.graph.addEdge(landed[from], copy, 1, 0);
            landed[to] = copy;
        }
    }

    // A value's copies are adjacent and in value order, so the first
    // one is found by bisecting the feed edges on the value they carry.
    auto carried = [&](int k) {
        NodeId from = loop.graph.edge(k).src;
        while (from >= n)
            from = loop.graph.edge(from - n).src;
        return from;
    };
    for (const DfgEdge &edge : graph.edges()) {
        const ClusterId at = clusterOf[edge.dst];
        if (clusterOf[edge.src] == at) {
            loop.graph.addEdge(edge.src, edge.dst, edge.latency,
                               edge.distance);
            continue;
        }
        int k = *std::ranges::partition_point(
            std::views::iota(0, copies),
            [&](int i) { return carried(i) < edge.src; });
        while (!bused && loop.placement[n + k].copyDsts[0] != at)
            ++k;
        loop.graph.addEdge(n + k, edge.dst, 1, edge.distance);
    }
    loop.graph.seal();
    return loop;
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
