#include "order/swing_order.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

namespace
{

/** Per-node state bits of the sweep. */
enum SwingFlag : int
{
    ordered = 1,
    pending = 2,
    /** Has an ordered predecessor / successor. */
    predOrdered = 4,
    succOrdered = 8,
};

} // namespace

void
swingOrder(const Dfg &graph, const NodeSets &sets,
           const TimeAnalysis &timing, const Adjacency &adjacency,
           SwingScratch &scratch, std::vector<NodeId> &result)
{
    const int n = graph.numNodes();
    result.clear();
    result.reserve(n);

    // depth = asap (distance from sources); height = distance to sinks.
    const auto &depth = timing.asap;
    const auto &height = timing.height;

    // The frontier and ordered-neighbor predicates are tracked
    // incrementally: a node is top-down ready when none of its
    // same-set distance-0 predecessors is pending (loop-carried edges
    // are exempt: they close recurrences, and their scheduling
    // windows scale with II), bottom-up ready likewise for its
    // successors. Counters of pending distance-0 neighbors and sticky
    // has-ordered-neighbor flags are updated in O(deg) when a node is
    // ordered, instead of rescanning edges per candidate per round.
    // The pending flag is self-cleaning: every member is picked and
    // cleared before its set finishes.
    scratch.state.assign(3 * static_cast<size_t>(n), 0);
    int *pend_pred0 = scratch.state.data();
    int *pend_succ0 = pend_pred0 + n;
    int *flags = pend_succ0 + n;
    auto is = [&](NodeId v, SwingFlag flag) { return (flags[v] & flag) != 0; };
    std::vector<NodeId> &members = scratch.members;
    members.reserve(n);
    for (int s = 0; s < sets.numSets(); ++s) {
        members.clear();
        for (NodeId v : sets.set(s)) {
            if (!is(v, ordered)) {
                flags[v] |= pending;
                members.push_back(v);
            }
        }

        for (NodeId v : members) {
            int pred0 = 0;
            for (const AdjEdge &edge : adjacency.inEdges(v)) {
                if (edge.distance == 0 && edge.node != v &&
                    is(edge.node, pending)) {
                    ++pred0;
                }
            }
            pend_pred0[v] = pred0;
            int succ0 = 0;
            for (const AdjEdge &edge : adjacency.outEdges(v)) {
                if (edge.distance == 0 && edge.node != v &&
                    is(edge.node, pending)) {
                    ++succ0;
                }
            }
            pend_succ0[v] = succ0;
            for (NodeId other : adjacency.preds(v)) {
                if (other != v && is(other, ordered)) {
                    flags[v] |= predOrdered;
                    break;
                }
            }
            for (NodeId other : adjacency.succs(v)) {
                if (other != v && is(other, ordered)) {
                    flags[v] |= succOrdered;
                    break;
                }
            }
        }

        size_t left = members.size();
        while (left > 0) {
            // Candidates per direction. The frontier conditions keep
            // the key invariant: a node is ordered only when all of
            // its same-set distance-0 predecessors (top-down) or
            // successors (bottom-up) are already ordered, so the
            // scheduler never faces a fixed closed window.
            NodeId best_td = invalidNode;
            NodeId best_bu = invalidNode;
            NodeId frontier_td = invalidNode;
            NodeId frontier_bu = invalidNode;

            auto betterTopDown = [&](NodeId a, NodeId b) {
                // Deeper first; tie: more critical; tie: smaller id.
                if (depth[a] != depth[b])
                    return depth[a] > depth[b];
                if (height[a] != height[b])
                    return height[a] > height[b];
                return a < b;
            };
            auto betterBottomUp = [&](NodeId a, NodeId b) {
                if (height[a] != height[b])
                    return height[a] > height[b];
                if (depth[a] != depth[b])
                    return depth[a] > depth[b];
                return a < b;
            };

            for (NodeId v : members) {
                if (!is(v, pending))
                    continue;
                if (pend_pred0[v] == 0) {
                    if (frontier_td == invalidNode ||
                        betterTopDown(v, frontier_td)) {
                        frontier_td = v;
                    }
                    if (is(v, predOrdered) &&
                        (best_td == invalidNode ||
                         betterTopDown(v, best_td))) {
                        best_td = v;
                    }
                }
                if (pend_succ0[v] == 0) {
                    if (frontier_bu == invalidNode ||
                        betterBottomUp(v, frontier_bu)) {
                        frontier_bu = v;
                    }
                    if (is(v, succOrdered) &&
                        (best_bu == invalidNode ||
                         betterBottomUp(v, best_bu))) {
                        best_bu = v;
                    }
                }
            }

            // Preference order follows the SMS ordering: first the
            // unordered predecessors of the ordered region (bottom-up
            // extension), then its unordered successors (top-down),
            // then a fresh top-down start from the most critical
            // source -- producers before consumers, which is what
            // makes the paper's predicted-copy reservation (PCR)
            // effective -- and finally a bottom-up start. The last
            // arm only triggers if a same-set distance-0 cycle
            // defeated both frontiers, which a well-formed loop
            // cannot have.
            NodeId pick = invalidNode;
            if (best_bu != invalidNode) {
                pick = best_bu;
            } else if (best_td != invalidNode) {
                pick = best_td;
            } else if (frontier_td != invalidNode) {
                pick = frontier_td;
            } else if (frontier_bu != invalidNode) {
                pick = frontier_bu;
            } else {
                for (NodeId v : members) {
                    if (is(v, pending) &&
                        (pick == invalidNode || betterBottomUp(v, pick))) {
                        pick = v;
                    }
                }
            }

            cams_assert(pick != invalidNode, "no orderable node");
            flags[pick] = (flags[pick] & ~pending) | ordered;
            result.push_back(pick);
            --left;
            // Compact the live list so later rounds skip nothing: each
            // candidate scan is an argmax under a strict total order,
            // so scan order cannot change the pick.
            auto dead = std::find(members.begin(), members.end(), pick);
            *dead = members.back();
            members.pop_back();
            // The pick left the pending set: its distance-0 edges no
            // longer block neighbors, and it is now an ordered
            // neighbor of everything adjacent to it.
            for (const AdjEdge &edge : adjacency.outEdges(pick)) {
                if (edge.distance == 0 && edge.node != pick &&
                    is(edge.node, pending)) {
                    --pend_pred0[edge.node];
                }
            }
            for (const AdjEdge &edge : adjacency.inEdges(pick)) {
                if (edge.distance == 0 && edge.node != pick &&
                    is(edge.node, pending)) {
                    --pend_succ0[edge.node];
                }
            }
            for (NodeId succ : adjacency.succs(pick)) {
                if (succ != pick)
                    flags[succ] |= predOrdered;
            }
            for (NodeId pred : adjacency.preds(pick)) {
                if (pred != pick)
                    flags[pred] |= succOrdered;
            }
        }
    }

    cams_assert(static_cast<int>(result.size()) == n,
                "swing order missed nodes");
}

std::vector<NodeId>
swingOrder(const Dfg &graph, int ii)
{
    const SccInfo sccs = findSccs(graph);
    const NodeSets sets = buildPrioritySets(graph, sccs);
    const TimeAnalysis timing = analyzeTiming(graph, ii);
    SwingScratch scratch;
    std::vector<NodeId> order;
    swingOrder(graph, sets, timing, Adjacency(graph), scratch, order);
    return order;
}

} // namespace cams
