#include "assign/exhaustive.hh"

#include <vector>

#include "graph/recmii.hh"
#include "support/logging.hh"

namespace cams
{

AnnotatedLoop
annotatePartition(const Dfg &graph,
                  const std::vector<ClusterId> &cluster_of,
                  const MachineDesc &machine)
{
    return spliceCopies(graph, cluster_of, ResourceModel(machine));
}

namespace
{

/**
 * Whether the partition fits an empty table of the II: every
 * operation's unit, then the copies of the spliced loop, reserved in
 * node order, and the spliced loop's recurrences (which pay the copy
 * latency when split) within the II. @p pools is a request buffer.
 */
bool
partitionFeasible(const Dfg &graph, const ResourceModel &model, int ii,
                  const std::vector<ClusterId> &cluster_of, Mrt &mrt,
                  std::vector<PoolId> &pools)
{
    mrt.reset(ii);
    auto reserve = [&] {
        const int row = mrt.findRow(pools);
        if (row >= 0)
            mrt.occupy(pools, row);
        return row >= 0;
    };
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        const Opcode op = graph.node(v).op;
        if (model.fuPool(cluster_of[v], opcodeFuClass(op)) == invalidPool)
            return false;
        model.opRequestInto(cluster_of[v], op, pools);
        if (!reserve())
            return false;
    }
    const AnnotatedLoop loop = spliceCopies(graph, cluster_of, model);
    for (NodeId copy = loop.numOriginalNodes; copy < loop.graph.numNodes();
         ++copy) {
        loop.requestInto(model, copy, pools);
        if (!reserve())
            return false;
    }
    return recMii(loop.graph) <= ii;
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
    Mrt mrt(model, ii);
    std::vector<PoolId> pools;
    for (long long code = 0; code < total; ++code) {
        long long rest = code;
        for (int v = 0; v < n; ++v) {
            cluster_of[v] = static_cast<ClusterId>(rest % clusters);
            rest /= clusters;
        }
        if (partitionFeasible(graph, model, ii, cluster_of, mrt, pools)) {
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
