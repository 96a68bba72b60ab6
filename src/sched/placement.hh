/**
 * @file
 * The iterative placement loop both modulo schedulers run. Internal:
 * only sched/sms.cc and sched/ims.cc include it.
 *
 * Operations leave a work list in priority order. Each one takes the
 * first fitting slot of its window; when none fits, it is forced to a
 * start past its previous one (so the schedule makes progress) and
 * the operations that block that row are ejected. A placement also
 * ejects the placed neighbours whose dependence its start violates.
 * Ejected operations go back onto the work list, and a budget bounds
 * the total placements: exhausting it fails the II and the driver
 * retries at II + 1.
 *
 * A scheduler is the loop instantiated with a policy, so every
 * per-node call binds at compile time. A policy supplies:
 *
 *   static constexpr long budgetPerNode;
 *       placements allowed per operation (at least 32 in all);
 *   Slot window(const Placement &p, NodeId op) const;
 *       the first fit in op's window and the forced start;
 *   NodeId victim(const Placement &p, NodeId op, int row) const;
 *       the placed operation to eject so that op fits the row, or
 *       invalidNode when none blocks it;
 *
 * and the priority order, as the order argument of place().
 */

#ifndef CAMS_SCHED_PLACEMENT_HH
#define CAMS_SCHED_PLACEMENT_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "mrt/mrt.hh"
#include "pipeline/context.hh"
#include "sched/schedule.hh"
#include "support/logging.hh"
#include "support/rankqueue.hh"

namespace cams
{

/** No start: before an operation's first placement, or no fit. */
constexpr long noStart = std::numeric_limits<long>::min();

/** A policy's answer for one operation. */
struct Slot
{
    /** The first fitting start in the window; noStart when none. */
    long fit;
    /** Where a forced placement starts, before the progress rule. */
    long forced;
};

/** The placement loop's state, as a policy reads it. */
struct Placement
{
    const Dfg &graph;
    const RequestTable &requests;
    const Mrt &mrt;
    const std::vector<PlacementNode> &node;
    int ii;

    /** Kernel row of a start cycle. */
    int rowOf(long start) const
    {
        const long row = start % ii;
        return static_cast<int>(row < 0 ? row + ii : row);
    }

    /**
     * The first start at which op's request fits, trying @p count
     * cycles from @p from in steps of @p step (+1 or -1) as one
     * cyclic row scan of the MRT; noStart when none fits.
     */
    long firstFit(NodeId op, long from, int count, int step) const
    {
        const int fit =
            mrt.scanRows(requests[op], rowOf(from), count, step);
        return fit < 0 ? noStart : from + static_cast<long>(step) * fit;
    }

    /** True when @p other is placed in @p row and holds a pool that
     *  @p op needs. */
    bool blocks(NodeId other, NodeId op, int row) const
    {
        if (!node[other].placed || node[other].row != row)
            return false;
        const auto held = requests[other];
        const auto needed = requests[op];
        return std::any_of(needed.begin(), needed.end(), [&](PoolId pool) {
            return std::find(held.begin(), held.end(), pool) != held.end();
        });
    }
};

template <class Policy>
bool
ModuloScheduler::place(const AnnotatedLoop &loop,
                       const ResourceModel &model, int ii,
                       const std::vector<NodeId> &order,
                       const Policy &policy, Schedule &out,
                       LoopContext &ctx) const
{
    const Dfg &graph = loop.graph;
    const int n = graph.numNodes();
    std::vector<PlacementNode> &node = nodes_;
    node.assign(n, PlacementNode{0, noStart, 0, -1, false});
    for (size_t i = 0; i < order.size(); ++i)
        node[order[i]].rank = static_cast<int>(i);
    RankQueue pending(pending_, n);

    const RequestTable &requests = ctx.requests(loop, model);
    Mrt &mrt = scratch_;
    mrt.reset(model, ii);
    const Placement view{graph, requests, mrt, node, ii};
    long budget = std::max<long>(32, Policy::budgetPerNode * n);
    long slot_conflicts = 0;
    long ejections = 0;

    auto eject = [&](NodeId v) {
        cams_assert(node[v].placed, "ejecting unplaced op ", v);
        mrt.free(requests[v], node[v].row);
        node[v].placed = false;
        pending.insert(node[v].rank);
        ++ejections;
    };
    auto fail = [&] {
        traceAttempt(ii, false, slot_conflicts, ejections);
        return false;
    };

    while (!pending.empty()) {
        if (budget-- <= 0)
            return fail();
        const NodeId op = order[pending.pop()];

        const Slot slot = policy.window(view, op);
        long chosen = slot.fit;
        if (chosen == noStart) {
            // Forced placement: never at or before the previous
            // start, so the schedule makes progress.
            ++slot_conflicts;
            chosen = std::max(slot.forced, node[op].lastStart + 1);
            const int row = view.rowOf(chosen);
            // Each canReserveAt counts toward mrt_word_scans, which
            // the compile-perf baseline pins: the loop re-tests once
            // after a fruitless victim search, and the row is tested
            // again below.
            bool progress = true;
            while (!mrt.canReserveAt(requests[op], row) && progress) {
                const NodeId victim = policy.victim(view, op, row);
                progress = victim != invalidNode;
                if (progress)
                    eject(victim);
            }
            if (!mrt.canReserveAt(requests[op], row))
                return fail(); // more than the row can ever hold
        }

        node[op].row = view.rowOf(chosen);
        mrt.occupy(requests[op], node[op].row);
        node[op].start = chosen;
        node[op].lastStart = chosen;
        node[op].placed = true;

        // Eject neighbours whose dependence the new start violates.
        for (const AdjEdge &edge : graph.outEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            if (node[edge.node].start <
                chosen + edge.latency -
                    static_cast<long>(ii) * edge.distance) {
                eject(edge.node);
            }
        }
        for (const AdjEdge &edge : graph.inEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            if (chosen < node[edge.node].start + edge.latency -
                             static_cast<long>(ii) * edge.distance) {
                eject(edge.node);
            }
        }
    }

    out.ii = ii;
    out.startCycle.resize(n);
    for (NodeId v = 0; v < n; ++v)
        out.startCycle[v] = static_cast<int>(node[v].start);
    out.normalize();
    traceAttempt(ii, true, slot_conflicts, ejections);
    return true;
}

} // namespace cams

#endif // CAMS_SCHED_PLACEMENT_HH
