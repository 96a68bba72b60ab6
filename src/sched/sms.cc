#include "sched/sms.hh"

#include <algorithm>
#include <limits>

#include "mrt/mrt.hh"
#include "pipeline/context.hh"

namespace cams
{

bool
SwingModuloScheduler::run(const AnnotatedLoop &loop,
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
    const std::vector<NodeId> &order = ctx.swingOrder(ii);
    constexpr long kNone = std::numeric_limits<long>::min();
    std::vector<NodeState> &node = nodes_;
    node.assign(n, NodeState{0, kNone, 0, -1, false});
    for (size_t i = 0; i < order.size(); ++i)
        node[order[i]].rank = static_cast<int>(i);

    // Work list in swing-order priority. The iterative variant the
    // paper uses (an "iterative version of the swing modulo
    // scheduler") ejects conflicting operations instead of failing
    // outright; a budget bounds total placements.
    //
    // The list is a rank-indexed bitmap with a moving minimum cursor:
    // pops and ejection re-inserts allocate nothing, and the lowest
    // rank (i.e. order[r]) pops first.
    const Adjacency &adj = ctx.adjacency();
    std::vector<char> &pendingRank = pendingRank_;
    pendingRank.assign(n, 1);
    int minRank = 0;
    int npending = n;
    auto wlPop = [&]() -> NodeId {
        while (!pendingRank[minRank])
            ++minRank;
        pendingRank[minRank] = 0;
        --npending;
        return order[minRank];
    };
    auto wlInsert = [&](NodeId v) {
        const int r = node[v].rank;
        if (!pendingRank[r]) {
            pendingRank[r] = 1;
            ++npending;
        }
        minRank = std::min(minRank, r);
    };

    const RequestTable &requests = ctx.requests(loop, model);

    Mrt &mrt = scratchMrt(model, ii);
    long budget = std::max<long>(32, 8L * n);
    long slot_conflicts = 0;
    long ejections = 0;

    auto rowOf = [&](long t) {
        return static_cast<int>(((t % ii) + ii) % ii);
    };
    auto unschedule = [&](NodeId v) {
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

        // Windows anchored to the already placed neighbors.
        long early = kNone;
        long late = kNone;
        for (const AdjEdge &edge : adj.inEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            early = std::max(early, node[edge.node].start + edge.latency -
                                        static_cast<long>(ii) *
                                            edge.distance);
        }
        for (const AdjEdge &edge : adj.outEdges(op)) {
            if (edge.node == op || !node[edge.node].placed)
                continue;
            const long bound = node[edge.node].start - edge.latency +
                               static_cast<long>(ii) * edge.distance;
            late = (late == kNone) ? bound : std::min(late, bound);
        }

        // Window scans, as cyclic first-fit row scans (identical row
        // order to walking the cycles one by one).
        long chosen = kNone;
        if (early != kNone && late != kNone && late >= early) {
            const int width = static_cast<int>(
                std::min(late, early + ii - 1) - early + 1);
            const int fit =
                mrt.scanRows(requests[op], rowOf(early), width, 1);
            if (fit >= 0)
                chosen = early + fit;
        } else if (early != kNone && late == kNone) {
            const int fit =
                mrt.scanRows(requests[op], rowOf(early), ii, 1);
            if (fit >= 0)
                chosen = early + fit;
        } else if (early == kNone && late != kNone) {
            const int fit =
                mrt.scanRows(requests[op], rowOf(late), ii, -1);
            if (fit >= 0)
                chosen = late - fit;
        } else if (early == kNone && late == kNone) {
            const long base = timing.asap[op];
            const int fit =
                mrt.scanRows(requests[op], rowOf(base), ii, 1);
            if (fit >= 0)
                chosen = base + fit;
        }

        if (chosen == kNone) {
            // Forced placement with ejection. Never repeat the
            // previous spot so the schedule makes progress.
            ++slot_conflicts;
            long t = early != kNone
                         ? early
                         : (late != kNone
                                ? late
                                : static_cast<long>(timing.asap[op]));
            if (node[op].lastStart != kNone && t <= node[op].lastStart)
                t = node[op].lastStart + 1;
            const int row = rowOf(t);
            bool progress = true;
            while (!mrt.canReserveAt(requests[op], row) && progress) {
                progress = false;
                // Eject the lowest-priority blocking op in that row.
                NodeId victim = invalidNode;
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
                    if (shares &&
                        (victim == invalidNode ||
                         node[other].rank > node[victim].rank)) {
                        victim = other;
                    }
                }
                if (victim != invalidNode) {
                    unschedule(victim);
                    progress = true;
                }
            }
            if (!mrt.canReserveAt(requests[op], row)) {
                // The op needs more than the row can ever hold.
                traceAttempt(ii, false, slot_conflicts, ejections);
                return false;
            }
            chosen = t;
        }

        node[op].row = rowOf(chosen);
        mrt.occupy(requests[op], node[op].row);
        node[op].start = chosen;
        node[op].lastStart = chosen;
        node[op].placed = true;

        // Eject neighbors whose dependence the new start violates.
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
    out.startCycle.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
        out.startCycle[v] = static_cast<int>(node[v].start);
    out.normalize();
    traceAttempt(ii, true, slot_conflicts, ejections);
    return true;
}

} // namespace cams
