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
    std::vector<NodeId> byPrio(n);
    for (NodeId v = 0; v < n; ++v)
        byPrio[v] = v;
    std::sort(byPrio.begin(), byPrio.end(), [&](NodeId a, NodeId b) {
        if (timing.height[a] != timing.height[b])
            return timing.height[a] > timing.height[b];
        return a < b;
    });
    std::vector<int> prio(n);
    for (int i = 0; i < n; ++i)
        prio[byPrio[i]] = i;
    std::vector<char> pendingPrio(n, 1);
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
        const int p = prio[v];
        if (!pendingPrio[p]) {
            pendingPrio[p] = 1;
            ++npending;
        }
        minPrio = std::min(minPrio, p);
    };

    std::vector<bool> placed(n, false);
    std::vector<int> start(n, 0);
    std::vector<int> lastStart(n, -1);
    std::vector<Reservation> slots(n);
    const std::vector<std::vector<PoolId>> &requests =
        ctx.requests(loop, model);

    Mrt &mrt = scratchMrt(model, ii);
    long budget =
        std::max<long>(32, static_cast<long>(budgetRatio_ * n));
    long slot_conflicts = 0;
    long ejections = 0;

    auto unschedule = [&](NodeId v) {
        cams_assert(placed[v], "displacing unplaced op ", v);
        mrt.release(slots[v]);
        placed[v] = false;
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
            if (edge.node == op || !placed[edge.node])
                continue;
            estart_wide = std::max(estart_wide,
                                   start[edge.node] + edge.latency -
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
            chosen = lastStart[op] < 0
                         ? estart
                         : std::max(estart, lastStart[op] + 1);
        }

        if (forced) {
            // Displace whatever blocks the required row.
            const int row = ((chosen % ii) + ii) % ii;
            bool progress = true;
            while (!mrt.canReserveAt(requests[op], row) && progress) {
                progress = false;
                for (NodeId other = 0; other < n; ++other) {
                    if (!placed[other] || slots[other].row != row)
                        continue;
                    const bool shares = std::any_of(
                        requests[op].begin(), requests[op].end(),
                        [&](PoolId pool) {
                            return std::find(slots[other].pools.begin(),
                                             slots[other].pools.end(),
                                             pool) !=
                                   slots[other].pools.end();
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

        mrt.reserveAtInto(requests[op], chosen % ii, slots[op]);
        slots[op].row = ((chosen % ii) + ii) % ii;
        start[op] = chosen;
        lastStart[op] = chosen;
        placed[op] = true;

        // Displace successors whose dependence the new start violates
        // (and predecessors, which can only happen on forced moves).
        for (const AdjEdge &edge : adj.outEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            if (start[edge.node] <
                start[op] + edge.latency -
                    static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !placed[edge.node])
                continue;
            if (start[op] < start[edge.node] + edge.latency -
                                static_cast<long>(ii) * edge.distance) {
                unschedule(edge.node);
            }
        }
    }

    out.ii = ii;
    out.startCycle = start;
    out.normalize();
    traceAttempt(ii, true, slot_conflicts, ejections);
    return true;
}

} // namespace cams
