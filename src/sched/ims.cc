#include "sched/ims.hh"

#include <algorithm>
#include <limits>

#include "mrt/mrt.hh"
#include "pipeline/context.hh"
#include "support/logging.hh"

namespace cams
{

bool
IterativeModuloScheduler::run(const AnnotatedLoop &loop,
                              const ResourceModel &model, int ii,
                              Schedule &out, LoopContext &ctx) const
{
    const Dfg &graph = loop.graph;
    const int n = graph.numNodes();
    if (n == 0) {
        out.ii = ii;
        out.startCycle.clear();
        return true;
    }
    if (!ctx.schedulableAt(ii))
        return false;

    const TimeAnalysis &timing = ctx.timing(ii);

    // Work list ordered by height (descending), then id. The priority
    // order is materialized once as a permutation and the list is a
    // bitmap over priority indices with a moving minimum cursor, so a
    // displacement allocates nothing.
    const Adjacency &adj = ctx.adjacency();
    std::vector<NodeId> &byPrio = byPrio_;
    byPrio.resize(n);
    for (NodeId v = 0; v < n; ++v)
        byPrio[v] = v;
    std::sort(byPrio.begin(), byPrio.end(), [&](NodeId a, NodeId b) {
        if (timing.height[a] != timing.height[b])
            return timing.height[a] > timing.height[b];
        return a < b;
    });
    std::vector<NodeState> &node = nodes_;
    node.assign(n, NodeState{0, -1, 0, -1, false});
    for (int i = 0; i < n; ++i)
        node[byPrio[i]].prio = i;
    std::vector<char> &pendingPrio = pendingPrio_;
    pendingPrio.assign(n, 1);
    int minPrio = 0;
    int npending = n;
    auto wlPop = [&]() -> NodeId {
        while (!pendingPrio[minPrio])
            ++minPrio;
        pendingPrio[minPrio] = 0;
        --npending;
        return byPrio[minPrio];
    };
    auto wlInsert = [&](NodeId v) {
        const int p = node[v].prio;
        if (!pendingPrio[p]) {
            pendingPrio[p] = 1;
            ++npending;
        }
        minPrio = std::min(minPrio, p);
    };

    const RequestTable &requests = ctx.requests(loop, model);

    Mrt &mrt = scratchMrt(model, ii);
    long budget =
        std::max<long>(32, static_cast<long>(budgetRatio_ * n));
    long slot_conflicts = 0;
    long ejections = 0;

    auto unschedule = [&](NodeId v) {
        cams_assert(node[v].placed, "displacing unplaced op ", v);
        mrt.free(requests[v], node[v].row);
        node[v].placed = false;
        wlInsert(v);
        ++ejections;
    };

    while (npending > 0) {
        if (budget-- <= 0) {
            traceAttempt(ii, false, slot_conflicts, ejections);
            return false;
        }
        const NodeId op = wlPop();

        // Earliest cycle permitted by the currently placed
        // predecessors. The per-edge bound is widened for the
        // intermediate product, then range-checked into int once: all
        // start-cycle math below stays int.
        long estart_wide = 0;
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            estart_wide = std::max(estart_wide,
                                   node[edge.node].start + edge.latency -
                                       static_cast<long>(ii) *
                                           edge.distance);
        }
        estart_wide = std::max<long>(estart_wide, 0);
        cams_assert(estart_wide <=
                        std::numeric_limits<int>::max() - 2L * ii,
                    "start-cycle overflow at II ", ii);
        const int estart = static_cast<int>(estart_wide);

        // First fit in the II-wide window from estart (same row
        // sequence as scanning cycle by cycle).
        int chosen = -1;
        const int fit = mrt.scanRows(requests[op], estart % ii, ii, 1);
        if (fit >= 0)
            chosen = estart + fit;
        bool forced = false;
        if (chosen < 0) {
            // Forced placement: never earlier than last time + 1 so the
            // schedule makes progress (Rau's rule).
            forced = true;
            ++slot_conflicts;
            chosen = node[op].lastStart < 0
                         ? estart
                         : std::max(estart, node[op].lastStart + 1);
        }

        if (forced) {
            // Displace whatever blocks the required row.
            const int row = ((chosen % ii) + ii) % ii;
            bool progress = true;
            while (!mrt.canReserveAt(requests[op], row) && progress) {
                progress = false;
                for (NodeId other = 0; other < n; ++other) {
                    if (!node[other].placed || node[other].row != row)
                        continue;
                    const auto held = requests[other];
                    const bool shares = std::any_of(
                        requests[op].begin(), requests[op].end(),
                        [&](PoolId pool) {
                            return std::find(held.begin(), held.end(),
                                             pool) != held.end();
                        });
                    if (shares) {
                        unschedule(other);
                        progress = true;
                        break;
                    }
                }
            }
            if (!mrt.canReserveAt(requests[op], row)) {
                // The op needs more than the row can ever hold.
                traceAttempt(ii, false, slot_conflicts, ejections);
                return false;
            }
        }

        node[op].row = chosen % ii;
        mrt.occupy(requests[op], node[op].row);
        node[op].start = chosen;
        node[op].lastStart = chosen;
        node[op].placed = true;

        // Displace successors whose dependence the new start violates
        // (and predecessors, which can only happen on forced moves).
        for (const AdjEdge &edge : adj.outEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            if (node[edge.node].start <
                chosen + edge.latency -
                    static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            if (chosen < node[edge.node].start + edge.latency -
                             static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
    }

    out.ii = ii;
    out.startCycle.resize(n);
    for (NodeId v = 0; v < n; ++v)
        out.startCycle[v] = node[v].start;
    out.normalize();
    traceAttempt(ii, true, slot_conflicts, ejections);
    return true;
}

} // namespace cams
