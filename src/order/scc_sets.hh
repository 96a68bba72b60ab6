/**
 * @file
 * Node grouping for cluster assignment (the paper's Section 4.1).
 *
 * Nodes are partitioned into an ordered list of sets: one set per
 * non-trivial SCC, sorted by decreasing RecMII so the most critical
 * recurrence is assigned first, followed by one final set holding
 * every node outside any recurrence.
 */

#ifndef CAMS_ORDER_SCC_SETS_HH
#define CAMS_ORDER_SCC_SETS_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"
#include "graph/scc.hh"

namespace cams
{

/**
 * The priority-ordered node sets of §4.1, flat: every set's members in
 * one array, set after set.
 */
struct NodeSets
{
    /** Members of every set, in decreasing set priority; the last set
     *  holds non-SCC nodes. Each set is ascending. */
    std::vector<NodeId> members;

    /** Set s is members[offsets[s], offsets[s + 1]); empty before
     *  buildPrioritySets fills it. */
    std::vector<int> offsets;

    /** RecMII of each set (1 for the trailing non-recurrence set). */
    std::vector<int> recMii;

    /** Set index of every node. */
    std::vector<int> setOf;

    int numSets() const
    {
        return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
    }

    /** Member nodes of one set. */
    std::span<const NodeId> set(int s) const
    {
        return {members.data() + offsets[s],
                members.data() + offsets[s + 1]};
    }
};

/**
 * Builds the priority sets.
 *
 * Ties between SCCs with equal RecMII are broken toward the larger
 * SCC (harder to place), then by smallest member id for determinism.
 */
NodeSets buildPrioritySets(const Dfg &graph, const SccInfo &sccs);

} // namespace cams

#endif // CAMS_ORDER_SCC_SETS_HH
