/**
 * @file
 * Strongly-connected-component analysis (Tarjan's algorithm,
 * iterative formulation so deep graphs cannot overflow the stack).
 *
 * Recurrences of a modulo-scheduled loop are exactly the non-trivial
 * SCCs of its data-flow graph: a component with more than one node, or
 * a single node with a self-edge (necessarily loop-carried).
 */

#ifndef CAMS_GRAPH_SCC_HH
#define CAMS_GRAPH_SCC_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"

namespace cams
{

/**
 * Result of SCC decomposition, flat: every component's members sit in
 * one array, component after component, so a decomposition costs a
 * fixed handful of allocations however many components it finds.
 */
struct SccInfo
{
    /** Component index of each node. */
    std::vector<int> componentOf;

    /**
     * Member nodes of every component, each in discovery order.
     * Components are emitted in reverse topological order of the
     * component DAG (Tarjan's natural output).
     */
    std::vector<NodeId> members;

    /** Component c is members[offsets[c], offsets[c + 1]); empty
     *  before a decomposition fills it. */
    std::vector<int> offsets;

    /** True when the component is a recurrence (size > 1 or self-loop). */
    std::vector<bool> nonTrivial;

    /** Number of components. */
    int numComponents() const
    {
        return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
    }

    /** Member nodes of one component. */
    std::span<const NodeId> component(int c) const
    {
        return {members.data() + offsets[c],
                members.data() + offsets[c + 1]};
    }

    /** Number of non-trivial (recurrence) components. */
    int numNonTrivial() const;

    /** True when the given node belongs to a recurrence component. */
    bool inRecurrence(NodeId node) const
    {
        return nonTrivial[componentOf[node]];
    }
};

/** Decomposes the graph into strongly connected components. */
SccInfo findSccs(const Dfg &graph);

} // namespace cams

#endif // CAMS_GRAPH_SCC_HH
