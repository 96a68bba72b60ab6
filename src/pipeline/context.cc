#include "pipeline/context.hh"

#include <algorithm>

#include "graph/recmii.hh"
#include "order/swing_order.hh"
#include "support/logging.hh"

namespace cams
{

LoopContext::LoopContext(const Dfg &graph)
    : graph_(&graph)
{
}

const SccInfo &
LoopContext::sccs()
{
    if (!sccs_) {
        ++misses_;
        sccs_.emplace(findSccs(*graph_));
    } else {
        ++hits_;
    }
    return *sccs_;
}

const NodeSets &
LoopContext::prioritySets()
{
    if (!sets_) {
        ++misses_;
        sets_.emplace(buildPrioritySets(*graph_, sccs()));
    } else {
        ++hits_;
    }
    return *sets_;
}

int
LoopContext::recMii()
{
    if (!recMii_) {
        ++misses_;
        // The priority sets already paid the per-SCC binary searches;
        // the whole-graph RecMII is their max (trivial SCCs and the
        // trailing non-recurrence set contribute 1).
        const NodeSets &sets = prioritySets();
        int value = 1;
        for (int r : sets.recMii)
            value = std::max(value, r);
        recMii_ = value;
    } else {
        ++hits_;
    }
    return *recMii_;
}

bool
LoopContext::schedulableAt(int ii)
{
    if (recMii_)
        return *recMii_ <= ii;
    if (knownSchedulable_ >= 0 && ii >= knownSchedulable_) {
        ++hits_;
        return true;
    }
    if (knownInfeasible_ >= 0 && ii <= knownInfeasible_) {
        ++hits_;
        return false;
    }
    ++misses_;
    // One positive-cycle test per recurrence: equivalent to comparing
    // against RecMII (the predicate RecMII <= ii holds iff no SCC has
    // a positive cycle at ii) without the binary search.
    const SccInfo &info = sccs();
    bool feasible = true;
    for (int c = 0; c < info.numComponents(); ++c) {
        if (!info.nonTrivial[c])
            continue;
        if (hasPositiveCycle(*graph_, info.component(c), ii)) {
            feasible = false;
            break;
        }
    }
    if (feasible) {
        knownSchedulable_ = knownSchedulable_ < 0
                                ? ii
                                : std::min(knownSchedulable_, ii);
    } else {
        knownInfeasible_ = std::max(knownInfeasible_, ii);
    }
    return feasible;
}

const TimeAnalysis &
LoopContext::timing(int ii)
{
    if (!timingSolver_) {
        timingSolver_.emplace(*graph_);
    }
    const TimeAnalysis &result = timingSolver_->solve(ii);
    if (timingSolver_->lastWasHit())
        ++hits_;
    else
        ++misses_;
    return result;
}

const std::vector<NodeId> &
LoopContext::swingOrder(int ii)
{
    if (orderIi_ == ii) {
        ++hits_;
        return order_;
    }
    ++misses_;
    cams::swingOrder(*graph_, prioritySets(), timing(ii),
                     swingScratch_, order_);
    orderIi_ = ii;
    return order_;
}

const RequestTable &
LoopContext::requests(const AnnotatedLoop &loop,
                      const ResourceModel &model)
{
    cams_assert(&loop.graph == graph_,
                "requests() for a foreign loop graph");
    if (requestsLoop_ == &loop && requestsModel_ == &model) {
        ++hits_;
        return requests_;
    }
    ++misses_;
    const int n = graph_->numNodes();
    std::vector<PoolId> &pools = requests_.pools_;
    std::vector<int> &offsets = requests_.offsets_;
    pools.clear();
    offsets.assign(1, 0);
    offsets.reserve(n + 1);
    // A request is one unit pool, or a copy's read port, bus or link
    // and write ports; the copies are few.
    pools.reserve(2 * static_cast<size_t>(n));
    std::vector<PoolId> request;
    request.reserve(2 + model.machine().numClusters());
    for (NodeId v = 0; v < n; ++v) {
        loop.requestInto(model, v, request);
        pools.insert(pools.end(), request.begin(), request.end());
        offsets.push_back(static_cast<int>(pools.size()));
    }
    requestsLoop_ = &loop;
    requestsModel_ = &model;
    return requests_;
}

void
LoopContext::checkAssignable(const MachineDesc &machine)
{
    if (assignableMachine_ == machine.name && !machine.name.empty()) {
        ++hits_;
        return;
    }
    ++misses_;
    std::string why;
    if (!graph_->wellFormed(&why))
        cams_fatal("assigning a malformed graph: ", why);
    for (const DfgNode &node : graph_->nodes()) {
        if (node.op == Opcode::Copy)
            cams_fatal("input graphs must not contain copies");
        if (!machine.canExecute(node.op)) {
            cams_fatal("machine '", machine.name, "' cannot execute ",
                       opcodeName(node.op));
        }
    }
    assignableMachine_ = machine.name;
}

Mrt &
LoopContext::scratchMrt(const ResourceModel &model, int ii)
{
    scratch_.reset(model, ii);
    return scratch_;
}

} // namespace cams
