#include "assign/exhaustive.hh"

#include <set>
#include <string>
#include <vector>

#include "assign/router.hh"
#include "graph/recmii.hh"
#include "support/logging.hh"

namespace cams
{

AnnotatedLoop
annotatePartition(const Dfg &graph,
                  const std::vector<ClusterId> &cluster_of,
                  const MachineDesc &machine)
{
    AnnotatedLoop out;
    out.numOriginalNodes = graph.numNodes();
    out.graph.setName(graph.name());
    for (const DfgNode &node : graph.nodes()) {
        out.graph.addNode(node.op, node.latency, node.name);
        out.placement.push_back({cluster_of[node.id], {}});
    }

    // serving[value][cluster] = node delivering the value there.
    std::vector<std::vector<NodeId>> serving(
        graph.numNodes(),
        std::vector<NodeId>(machine.numClusters(), invalidNode));

    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        std::set<ClusterId> dst_set;
        for (NodeId succ : graph.successors(v)) {
            if (succ != v && cluster_of[succ] != cluster_of[v])
                dst_set.insert(cluster_of[succ]);
        }
        if (dst_set.empty())
            continue;
        const std::vector<ClusterId> dsts(dst_set.begin(),
                                          dst_set.end());
        const std::string base = "cp_" + graph.node(v).name;
        if (machine.broadcast()) {
            const NodeId copy =
                out.graph.addNode(Opcode::Copy, 1, base);
            out.placement.push_back({cluster_of[v], dsts});
            out.graph.addEdge(v, copy, graph.node(v).latency, 0);
            for (ClusterId dst : dsts)
                serving[v][dst] = copy;
        } else {
            const auto hops = planHops(machine, cluster_of[v], dsts);
            std::vector<NodeId> landing(machine.numClusters(),
                                        invalidNode);
            for (const Hop &hop : hops) {
                const NodeId copy = out.graph.addNode(
                    Opcode::Copy, 1,
                    base + "_" + std::to_string(hop.to));
                out.placement.push_back({hop.from, {hop.to}});
                if (hop.from == cluster_of[v]) {
                    out.graph.addEdge(v, copy, graph.node(v).latency,
                                      0);
                } else {
                    out.graph.addEdge(landing[hop.from], copy, 1, 0);
                }
                landing[hop.to] = copy;
                serving[v][hop.to] = copy;
            }
        }
    }

    for (const DfgEdge &edge : graph.edges()) {
        if (cluster_of[edge.src] == cluster_of[edge.dst]) {
            out.graph.addEdge(edge.src, edge.dst, edge.latency,
                              edge.distance);
        } else {
            out.graph.addEdge(serving[edge.src][cluster_of[edge.dst]],
                              edge.dst, 1, edge.distance);
        }
    }
    out.graph.seal();
    return out;
}

namespace
{

bool
partitionFeasible(const Dfg &graph, const ResourceModel &model, int ii,
                  const std::vector<ClusterId> &cluster_of)
{
    const MachineDesc &machine = model.machine();
    Mrt mrt(model, ii);

    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        const FuClass cls = opcodeFuClass(graph.node(v).op);
        if (model.fuPool(cluster_of[v], cls) == invalidPool)
            return false;
        if (!mrt.reserve(model.opRequest(cluster_of[v],
                                         graph.node(v).op))) {
            return false;
        }
    }

    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        std::set<ClusterId> dsts;
        for (NodeId succ : graph.successors(v)) {
            if (succ != v && cluster_of[succ] != cluster_of[v])
                dsts.insert(cluster_of[succ]);
        }
        if (dsts.empty())
            continue;
        if (machine.broadcast()) {
            if (!mrt.reserve(model.copyRequest(
                    cluster_of[v],
                    std::vector<ClusterId>(dsts.begin(), dsts.end())))) {
                return false;
            }
        } else {
            const auto hops =
                planHops(machine, cluster_of[v],
                         std::vector<ClusterId>(dsts.begin(),
                                                dsts.end()));
            for (const Hop &hop : hops) {
                if (!mrt.reserve(
                        model.copyRequest(hop.from, {hop.to}))) {
                    return false;
                }
            }
        }
    }

    // Recurrences pay the copy latency when split.
    return recMii(annotatePartition(graph, cluster_of, machine).graph) <=
           ii;
}

} // namespace

ExhaustivePartition
exhaustiveAssign(const Dfg &graph, const ResourceModel &model, int ii,
                 int max_nodes)
{
    ExhaustivePartition out;
    const int n = graph.numNodes();
    const int clusters = model.machine().numClusters();
    cams_assert(clusters >= 1, "machine with no clusters");

    // Bound the enumeration: clusters^n <= 2^max_nodes.
    long long total = 1;
    for (int i = 0; i < n; ++i) {
        total *= clusters;
        if (total > (1LL << max_nodes)) {
            out.verdict = ExhaustiveVerdict::TooLarge;
            return out;
        }
    }

    std::vector<ClusterId> cluster_of(n, 0);
    for (long long code = 0; code < total; ++code) {
        long long rest = code;
        for (int v = 0; v < n; ++v) {
            cluster_of[v] = static_cast<ClusterId>(rest % clusters);
            rest /= clusters;
        }
        if (partitionFeasible(graph, model, ii, cluster_of)) {
            out.verdict = ExhaustiveVerdict::Feasible;
            out.clusterOf = cluster_of;
            return out;
        }
    }
    return out;
}

ExhaustiveVerdict
exhaustiveFeasible(const Dfg &graph, const ResourceModel &model, int ii,
                   int max_nodes)
{
    return exhaustiveAssign(graph, model, ii, max_nodes).verdict;
}

int
exhaustiveBestIi(const Dfg &graph, const ResourceModel &model, int lower,
                 int limit, int max_nodes)
{
    for (int ii = lower; ii <= limit; ++ii) {
        const ExhaustiveVerdict verdict =
            exhaustiveFeasible(graph, model, ii, max_nodes);
        if (verdict == ExhaustiveVerdict::TooLarge)
            return 0;
        if (verdict == ExhaustiveVerdict::Feasible)
            return ii;
    }
    return -1;
}

} // namespace cams
