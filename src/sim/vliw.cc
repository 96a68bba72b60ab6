#include "sim/vliw.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

VliwSimulator::VliwSimulator(const AnnotatedLoop &loop,
                             const Schedule &schedule,
                             const MachineDesc &machine)
    : loop_(loop), schedule_(schedule), machine_(machine)
{
    cams_assert(static_cast<int>(schedule.startCycle.size()) ==
                    loop.graph.numNodes(),
                "schedule does not match the loop");
}

VliwRun
VliwSimulator::run(int iterations)
{
    VliwRun result;
    result.iterations = iterations;
    tokens_.clear();

    const Dfg &graph = loop_.graph;
    const int n = graph.numNodes();
    const int ii = schedule_.ii;

    // All dynamic operation instances in issue order. Reads happen at
    // issue and writes strictly later (every latency >= 1), so issue
    // order is a legal simulation order; ties are irrelevant.
    struct Instance
    {
        long issue;
        NodeId node;
        long iteration;
    };
    std::vector<Instance> instances;
    instances.reserve(static_cast<size_t>(n) * iterations);
    for (long k = 0; k < iterations; ++k) {
        for (NodeId v = 0; v < n; ++v) {
            instances.push_back(
                {schedule_.startCycle[v] + k * ii, v, k});
        }
    }
    std::stable_sort(instances.begin(), instances.end(),
                     [](const Instance &a, const Instance &b) {
                         return a.issue < b.issue;
                     });

    auto report = [&](const std::string &message) {
        if (result.errors.size() < 16)
            result.errors.push_back(message);
    };

    // A copy forwards its producer's value, so a live-in read through
    // a copy chain must take the identity of the ultimate original
    // producer, exactly as the sequential loop sees it.
    auto resolveProducer = [&](NodeId v) {
        while (graph.node(v).op == Opcode::Copy) {
            const auto in = graph.inEdges(v);
            cams_assert(in.size() == 1, "copy with fan-in != 1");
            v = in[0].node;
        }
        return v;
    };

    long last_completion = 0;
    std::vector<SimValue> inputs;
    for (const Instance &inst : instances) {
        const DfgNode &node = graph.node(inst.node);
        const OpPlacement &place = loop_.placement[inst.node];
        const ClusterId home = place.cluster;

        // Gather inputs, checking presence and timing on this cluster.
        inputs.clear();
        bool inputs_ok = true;
        for (const AdjEdge &edge : graph.inEdges(inst.node)) {
            const long src_iter = inst.iteration - edge.distance;
            if (src_iter < 0) {
                // Loop live-ins are preloaded into every register
                // file by the (unmodeled) loop prologue.
                inputs.push_back(
                    liveInValue(resolveProducer(edge.node), src_iter));
                continue;
            }
            auto it = tokens_.find({edge.node, src_iter});
            if (it == tokens_.end()) {
                report(node.name + " iter " +
                       std::to_string(inst.iteration) +
                       " reads a value never produced");
                inputs_ok = false;
                break;
            }
            auto where = it->second.availableAt.find(home);
            if (where == it->second.availableAt.end()) {
                report(node.name + " iter " +
                       std::to_string(inst.iteration) + " on C" +
                       std::to_string(home) + " reads " +
                       graph.node(edge.node).name +
                       " which never reaches that cluster");
                inputs_ok = false;
                break;
            }
            if (where->second > inst.issue) {
                report(node.name + " iter " +
                       std::to_string(inst.iteration) + " at cycle " +
                       std::to_string(inst.issue) + " reads " +
                       graph.node(edge.node).name + " available at " +
                       std::to_string(where->second));
                inputs_ok = false;
                break;
            }
            inputs.push_back(it->second.value);
        }
        if (!inputs_ok)
            continue;

        Token token;
        if (node.op == Opcode::Copy) {
            cams_assert(inputs.size() == 1, "copy with fan-in != 1");
            token.value = inputs[0];
            for (ClusterId dst : place.copyDsts) {
                token.availableAt[dst] = inst.issue + node.latency;
                ++result.transfers;
            }
        } else {
            token.value = applyOp(node.op, inst.node, inputs);
            token.availableAt[home] = inst.issue + node.latency;
        }
        last_completion =
            std::max(last_completion, inst.issue + node.latency);
        tokens_[{inst.node, inst.iteration}] = std::move(token);
    }

    result.cycles = last_completion;
    return result;
}

SimValue
VliwSimulator::value(NodeId node, long iteration) const
{
    if (iteration < 0)
        return liveInValue(node, iteration);
    auto it = tokens_.find({node, iteration});
    cams_assert(it != tokens_.end(), "value(", node, ",", iteration,
                ") was not computed");
    return it->second.value;
}

} // namespace cams
