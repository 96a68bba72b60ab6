#include "sched/ims.hh"

#include <numeric>

#include "sched/placement.hh"

namespace cams
{

namespace
{

/** Windows from the earliest start the placed predecessors allow, and
 *  the first blocker by id ejected first. */
struct IterativePolicy
{
    static constexpr long budgetPerNode = 6;

    Slot window(const Placement &p, NodeId op) const
    {
        long estart = 0;
        for (const AdjEdge &edge : p.graph.inEdges(op)) {
            if (edge.node == op || !p.node[edge.node].placed)
                continue;
            estart = std::max(estart, p.node[edge.node].start +
                                          edge.latency -
                                          static_cast<long>(p.ii) *
                                              edge.distance);
        }
        // Start cycles must fit a Schedule's int, window included.
        cams_assert(estart <= std::numeric_limits<int>::max() - 2L * p.ii,
                    "start-cycle overflow at II ", p.ii);
        return {p.firstFit(op, estart, p.ii, 1), estart};
    }

    NodeId victim(const Placement &p, NodeId op, int row) const
    {
        for (NodeId other = 0; other < p.graph.numNodes(); ++other) {
            if (p.blocks(other, op, row))
                return other;
        }
        return invalidNode;
    }
};

} // namespace

bool
IterativeModuloScheduler::run(const AnnotatedLoop &loop,
                              const ResourceModel &model, int ii,
                              Schedule &out, LoopContext &ctx) const
{
    // Highest height first, then lowest id.
    const TimeAnalysis &timing = ctx.timing(ii);
    std::vector<NodeId> &order = byHeight_;
    order.resize(loop.graph.numNodes());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        if (timing.height[a] != timing.height[b])
            return timing.height[a] > timing.height[b];
        return a < b;
    });
    return place(loop, model, ii, order, IterativePolicy{}, out, ctx);
}

} // namespace cams
