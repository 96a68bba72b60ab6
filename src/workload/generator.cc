#include "workload/generator.hh"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace cams
{

namespace
{

/** Opcode mix of recurrence members (accumulations, reductions). */
Opcode
sccOpcode(Rng &rng)
{
    static const Opcode ops[] = {Opcode::FpAdd, Opcode::FpMult,
                                 Opcode::IntAlu, Opcode::IntShift};
    static const std::vector<double> weights = {0.42, 0.20, 0.30, 0.08};
    return ops[rng.weightedIndex(weights)];
}

/** Opcode mix of straight-line body operations. */
Opcode
bodyOpcode(Rng &rng)
{
    static const Opcode ops[] = {
        Opcode::Load,  Opcode::Store,  Opcode::IntAlu, Opcode::IntShift,
        Opcode::FpAdd, Opcode::FpMult, Opcode::FpDiv,  Opcode::FpSqrt};
    static const std::vector<double> weights = {0.22, 0.11,  0.27, 0.05,
                                                0.17, 0.13,  0.04, 0.01};
    return ops[rng.weightedIndex(weights)];
}

} // namespace

Dfg
generateLoop(uint64_t seed, const GeneratorParams &params,
             const std::string &name)
{
    Rng rng(seed);
    Dfg graph;
    graph.setName(name.empty() ? "synth" + std::to_string(seed) : name);

    const int n =
        rng.lognormalInt(params.nodeMu, params.nodeSigma,
                         params.minNodes, params.maxNodes);
    const int body_count = n - 1; // one slot reserved for the branch

    // --- Plan the recurrences -------------------------------------
    struct SccPlan
    {
        int first; // body position of the first member
        int size;
        int distance; // of the closing loop-carried edge
    };
    std::vector<SccPlan> sccs;
    if (body_count >= 2 && rng.chance(params.sccLoopProbability)) {
        int budget = std::min(params.maxSccNodes, body_count);
        int count = 1;
        while (count < params.maxSccsPerLoop && rng.chance(0.55))
            ++count;
        std::vector<int> sizes;
        for (int i = 0; i < count && budget >= 2; ++i) {
            int size = 2 + rng.lognormalInt(1.05, 0.75, 0, budget - 2);
            size = std::min(size, budget);
            sizes.push_back(size);
            budget -= size;
        }
        // Lay the SCC blocks out contiguously at the front of the
        // body; interleaving with free nodes happens through edges.
        int position = 0;
        for (int size : sizes) {
            SccPlan plan;
            plan.first = position;
            plan.size = size;
            plan.distance = rng.chance(0.15) ? 2 : 1;
            position += size;
            sccs.push_back(plan);
        }
    }

    // --- Create the nodes (body order = topological order) ---------
    std::vector<bool> in_scc(body_count, false);
    for (const SccPlan &scc : sccs) {
        for (int i = scc.first; i < scc.first + scc.size; ++i)
            in_scc[i] = true;
    }
    for (int i = 0; i < body_count; ++i) {
        Opcode op = in_scc[i] ? sccOpcode(rng) : bodyOpcode(rng);
        // The first body node is always a root; a store there would be
        // left with nothing to store (and could leave the graph
        // edgeless), so demote it to a load.
        if (i == 0 && op == Opcode::Store)
            op = Opcode::Load;
        graph.addNode(op);
    }
    const NodeId branch = graph.addNode(Opcode::Branch);

    std::set<std::pair<NodeId, NodeId>> edge_set;
    std::vector<int> fanout(graph.numNodes(), 0);
    auto addEdge = [&](NodeId src, NodeId dst, int distance) {
        if (edge_set.count({src, dst}))
            return false;
        edge_set.insert({src, dst});
        graph.addEdge(src, dst, -1, distance);
        ++fanout[src];
        return true;
    };

    auto canProduce = [&](NodeId v) {
        const Opcode op = graph.node(v).op;
        return op != Opcode::Store && op != Opcode::Branch;
    };

    // Compiled loop bodies combine two sharing patterns: a few "hub"
    // values with high fan-out (the loop index, IF-conversion
    // predicates, base addresses, loop invariants) and expression
    // trees whose intermediate values have a single local consumer.
    // Hubs make graphs dense without making them hard to partition --
    // on a broadcast machine one copy delivers a hub everywhere --
    // while diffuse random sharing would be maximally cut-hostile and
    // unlike real code.
    std::vector<NodeId> hubs;
    for (NodeId u = 0; u < body_count && static_cast<int>(hubs.size()) <
                                             std::max(1, body_count / 10);
         ++u) {
        const Opcode op = graph.node(u).op;
        if (!in_scc[u] &&
            (op == Opcode::IntAlu || op == Opcode::IntShift)) {
            hubs.push_back(u);
        }
    }

    auto pickTreeProducer = [&](NodeId before) -> NodeId {
        std::vector<NodeId> producers;
        std::vector<double> weights;
        for (NodeId u = 0; u < before; ++u) {
            if (!canProduce(u))
                continue;
            producers.push_back(u);
            const double locality = (before - u) <= 6    ? 3.0
                                    : (before - u) <= 16 ? 1.0
                                                         : 0.35;
            weights.push_back(locality /
                              ((1.0 + fanout[u]) * (1.0 + fanout[u])));
        }
        if (producers.empty())
            return invalidNode;
        return producers[rng.weightedIndex(weights)];
    };

    auto pickProducer = [&](NodeId before) -> NodeId {
        // Hubs soak up roughly half of the value uses.
        std::vector<NodeId> usable_hubs;
        for (NodeId hub : hubs) {
            if (hub < before)
                usable_hubs.push_back(hub);
        }
        if (!usable_hubs.empty() && rng.chance(0.5)) {
            return usable_hubs[rng.uniformInt(
                0, static_cast<int>(usable_hubs.size()) - 1)];
        }
        return pickTreeProducer(before);
    };

    // --- Close the recurrences -------------------------------------
    for (const SccPlan &scc : sccs) {
        const int last = scc.first + scc.size - 1;
        for (int i = scc.first; i < last; ++i)
            addEdge(i, i + 1, 0);
        addEdge(last, scc.first, scc.distance);
        if (scc.size >= 3 && rng.chance(0.3)) {
            const int from = rng.uniformInt(scc.first, last - 2);
            const int to = rng.uniformInt(from + 2, last);
            addEdge(from, to, 0);
        }
    }

    // --- Wire the straight-line body -------------------------------
    for (int v = 0; v < body_count; ++v) {
        if (in_scc[v] && v != 0) {
            // Recurrence members already have predecessors; give the
            // block head an occasional external input.
            const bool is_head = std::any_of(
                sccs.begin(), sccs.end(),
                [&](const SccPlan &scc) { return scc.first == v; });
            if (!is_head || !rng.chance(0.5))
                continue;
        }
        if (v == 0)
            continue; // the first node is always a root

        const Opcode op = graph.node(v).op;
        const bool may_root =
            op == Opcode::Load ? rng.chance(0.35) : rng.chance(0.05);
        if (may_root && op != Opcode::Store)
            continue;

        // One or two predecessors among earlier producers.
        const int preds = rng.chance(0.35) ? 2 : 1;
        for (int i = 0; i < preds; ++i) {
            const NodeId u = pickProducer(v);
            if (u != invalidNode)
                addEdge(u, v, 0);
        }
    }

    // The loop-back branch tests a value computed in the body.
    {
        const NodeId u = pickProducer(body_count);
        if (u != invalidNode)
            addEdge(u, branch, 0);
    }

    // --- Extra edges up to the calibrated density -------------------
    const double density_noise = 0.85 + 0.3 * rng.uniformReal();
    const int target = std::min(
        232,
        static_cast<int>(params.edgeFactor * n * density_noise + 0.5));
    int attempts = 4 * target;
    while (graph.numEdges() < target && attempts-- > 0 &&
           body_count >= 2) {
        const NodeId dst = rng.uniformInt(1, body_count - 1);
        const NodeId src = pickProducer(dst);
        if (src == invalidNode)
            continue;
        const int distance =
            rng.chance(params.carriedEdgeProbability) ? 1 : 0;
        addEdge(src, dst, distance);
    }

    cams_assert(graph.numNodes() == n, "node count drifted");
    std::string why;
    cams_assert(graph.wellFormed(&why), "generated a bad graph: ", why);
    graph.seal();
    return graph;
}

} // namespace cams
