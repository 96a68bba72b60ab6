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

    /** Resource pools node needs, per the machine's resource model. */
    std::vector<PoolId> request(const ResourceModel &model,
                                NodeId node) const;

    /** request() written into a caller buffer. */
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
 * Wraps an unassigned loop for a single-cluster (unified) machine:
 * every node runs on cluster 0, no copies. This is how the baseline
 * II of the paper's comparisons is produced.
 */
AnnotatedLoop unifiedLoop(const Dfg &graph);

} // namespace cams

#endif // CAMS_ASSIGN_ASSIGNMENT_HH
