/**
 * @file
 * Output types of the cluster assignment phase.
 *
 * The assigner consumes a loop graph and produces an AnnotatedLoop:
 * the same graph with explicit Copy operations spliced into every
 * inter-cluster dependence, plus a placement record per node that
 * tells any cluster-oblivious modulo scheduler which resource pools
 * each operation occupies. This is exactly the hand-off of the
 * paper's Figure 5: after phase one, scheduling needs no knowledge
 * of clustering.
 */

#ifndef CAMS_ASSIGN_ASSIGNMENT_HH
#define CAMS_ASSIGN_ASSIGNMENT_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"
#include "mrt/mrt.hh"

namespace cams
{

/** Where one operation of the annotated loop executes. */
struct OpPlacement
{
    /** Executing cluster (for a copy: the cluster it reads from). */
    ClusterId cluster = invalidCluster;

    /**
     * Destination clusters, copies only. On a bused machine a single
     * copy broadcasts to every listed cluster; on a point-to-point
     * machine this is exactly one neighbor of the source.
     */
    std::vector<ClusterId> copyDsts;
};

/** A loop graph annotated with cluster placements and copies. */
struct AnnotatedLoop
{
    /** Original nodes (ids preserved) followed by the copy nodes. */
    Dfg graph;

    /** Placement of every node of @ref graph. */
    std::vector<OpPlacement> placement;

    /** Nodes [0, numOriginalNodes) are the input operations. */
    int numOriginalNodes = 0;

    /** Number of copy operations added by assignment. */
    int numCopies() const
    {
        return graph.numNodes() - numOriginalNodes;
    }

    /** True when the node is an inserted copy. */
    bool isCopy(NodeId node) const
    {
        return node >= numOriginalNodes;
    }

    /**
     * The resource pools a node needs, per the machine's resource
     * model, written into a caller buffer.
     */
    void requestInto(const ResourceModel &model, NodeId node,
                     std::vector<PoolId> &out) const;

    /**
     * Checks structural sanity: every edge either stays inside one
     * cluster or runs through copies hop by hop, copies have exactly
     * the placements their opcode requires, and the graph is well
     * formed. @return true and leaves @p why empty on success.
     */
    bool validate(const MachineDesc &machine, std::string *why) const;
};

/**
 * Splices copies into a loop whose operations have fixed clusters:
 * the one way an AnnotatedLoop with copies is built, whether the
 * assigner, the exhaustive rung or the exact decoder chose the
 * clusters. In value order, every value with consumers on other
 * clusters gets copies: on a bused machine one broadcast copy to
 * their clusters, ascending, named cp_<value>; on a point-to-point
 * machine a hop chain, one copy onto each of the value's hopTargets in
 * the model's tree order, named cp_<value>_<cluster>, each reading the
 * cluster of its tree parent. A copy reading the value's own cluster
 * is fed by the value at the value's latency, a relay by the copy on
 * its parent at latency 1, both at distance 0; then the input's edges
 * follow in id order, a cross-cluster one leaving the copy on its
 * consumer's cluster at latency 1 and its own distance. The result is
 * sealed, and its arrays are allocated once, at their final sizes.
 */
AnnotatedLoop spliceCopies(const Dfg &graph,
                           std::span<const ClusterId> clusterOf,
                           const ResourceModel &model);

/**
 * Wraps an unassigned loop for a single-cluster (unified) machine:
 * every node runs on cluster 0, no copies. This is how the baseline
 * II of the paper's comparisons is produced.
 */
AnnotatedLoop unifiedLoop(const Dfg &graph);

} // namespace cams

#endif // CAMS_ASSIGN_ASSIGNMENT_HH
