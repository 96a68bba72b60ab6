#include "sched/sms.hh"

#include "sched/placement.hh"

namespace cams
{

namespace
{

/** Swing order, windows anchored to the placed neighbours, and the
 *  lowest-priority blocker ejected first. */
struct SwingPolicy
{
    static constexpr long budgetPerNode = 8;

    const TimeAnalysis &timing;

    Slot window(const Placement &p, NodeId op) const
    {
        long early = noStart;
        long late = noStart;
        for (const AdjEdge &edge : p.graph.inEdges(op)) {
            if (edge.node == op || !p.node[edge.node].placed)
                continue;
            early = std::max(early, p.node[edge.node].start +
                                        edge.latency -
                                        static_cast<long>(p.ii) *
                                            edge.distance);
        }
        for (const AdjEdge &edge : p.graph.outEdges(op)) {
            if (edge.node == op || !p.node[edge.node].placed)
                continue;
            const long bound = p.node[edge.node].start - edge.latency +
                               static_cast<long>(p.ii) * edge.distance;
            late = (late == noStart) ? bound : std::min(late, bound);
        }

        // Forward from the predecessors' bound, backward from the
        // successors', both-bounded between them, or from ASAP when
        // no neighbour is placed.
        if (early != noStart && late != noStart) {
            if (late < early)
                return {noStart, early};
            const int width = static_cast<int>(
                std::min(late, early + p.ii - 1) - early + 1);
            return {p.firstFit(op, early, width, 1), early};
        }
        if (early != noStart)
            return {p.firstFit(op, early, p.ii, 1), early};
        if (late != noStart)
            return {p.firstFit(op, late, p.ii, -1), late};
        const long asap = timing.asap[op];
        return {p.firstFit(op, asap, p.ii, 1), asap};
    }

    NodeId victim(const Placement &p, NodeId op, int row) const
    {
        NodeId victim = invalidNode;
        for (NodeId other = 0; other < p.graph.numNodes(); ++other) {
            if (p.blocks(other, op, row) &&
                (victim == invalidNode ||
                 p.node[other].rank > p.node[victim].rank)) {
                victim = other;
            }
        }
        return victim;
    }
};

} // namespace

bool
SwingModuloScheduler::run(const AnnotatedLoop &loop,
                          const ResourceModel &model, int ii,
                          Schedule &out, LoopContext &ctx) const
{
    const SwingPolicy policy{ctx.timing(ii)};
    return place(loop, model, ii, ctx.swingOrder(ii), policy, out, ctx);
}

} // namespace cams
