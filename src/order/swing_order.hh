/**
 * @file
 * Swing Modulo Scheduler node ordering (Llosa et al., PACT 1996),
 * applied per priority set as the paper's Section 4.1 prescribes.
 *
 * Within each set the order alternates between top-down and bottom-up
 * sweeps so that, whenever possible, a node is listed only after all
 * of its already-listed neighbors from one side. For cluster
 * assignment this minimizes the chance of assigning a node whose
 * predecessors and successors already sit on different clusters; for
 * the SMS scheduler itself it minimizes value lifetimes.
 */

#ifndef CAMS_ORDER_SWING_ORDER_HH
#define CAMS_ORDER_SWING_ORDER_HH

#include <vector>

#include "graph/adjacency.hh"
#include "graph/analysis.hh"
#include "graph/dfg.hh"
#include "order/scc_sets.hh"

namespace cams
{

/** Working arrays of swingOrder, reused across calls by a caller
 *  that orders at more than one II. */
struct SwingScratch
{
    /** Per node, array after array: pending distance-0 predecessors,
     *  pending distance-0 successors, and the sweep's flag bits. */
    std::vector<int> state;
    /** The current set's unordered members. */
    std::vector<NodeId> members;
};

/**
 * Orders all nodes of the graph: sets are consumed in priority order
 * and the swing sweep is applied within each set.
 *
 * @param timing a timing analysis at the candidate II (depth = asap,
 *        height drives criticality tie-breaks).
 * @param adjacency packed neighbor lists of the same graph.
 * @param out receives every node exactly once, highest assignment
 *        priority first.
 */
void swingOrder(const Dfg &graph, const NodeSets &sets,
                const TimeAnalysis &timing, const Adjacency &adjacency,
                SwingScratch &scratch, std::vector<NodeId> &out);

/**
 * Convenience overload: builds SCC sets, timing at the given II and
 * the adjacency.
 */
std::vector<NodeId> swingOrder(const Dfg &graph, int ii);

} // namespace cams

#endif // CAMS_ORDER_SWING_ORDER_HH
