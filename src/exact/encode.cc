#include "exact/encode.hh"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <utility>

#include "graph/opcode.hh"
#include "graph/scc.hh"
#include "support/logging.hh"

namespace cams
{

std::vector<long>
latestStarts(const Dfg &graph, int ii)
{
    constexpr long noPath = std::numeric_limits<long>::min();
    const long slack = ii - 1; // cycles of rounding per tight edge
    const SccInfo sccs = findSccs(graph);
    std::vector<long> hi(graph.numNodes(), 0);
    std::vector<long> entry(graph.numNodes(), slack);
    std::vector<int> slot(graph.numNodes(), 0);
    std::vector<long> span;
    // findSccs emits the condensation in reverse topological order.
    for (int c = sccs.numComponents() - 1; c >= 0; --c) {
        const std::span<const NodeId> members = sccs.component(c);
        const int m = static_cast<int>(members.size());
        for (int i = 0; i < m; ++i)
            slot[members[i]] = i;
        span.assign(static_cast<size_t>(m) * m, noPath);
        for (int i = 0; i < m; ++i) {
            span[i * m + i] = 0;
            const NodeId v = members[i];
            for (const AdjEdge &e : graph.inEdges(v)) {
                if (e.node == v)
                    continue;
                // The edge's lag on one cluster and through a copy.
                const long carried = static_cast<long>(ii) * e.distance;
                const long same = e.latency - carried;
                const long cross = graph.node(e.node).latency + 1 - carried;
                if (sccs.componentOf[e.node] == c) {
                    long &s = span[slot[e.node] * m + i];
                    s = std::max(s, std::min(same, cross));
                } else {
                    const long up = std::max(same + slack, cross + 2 * slack);
                    entry[v] = std::max(entry[v], hi[e.node] + up);
                }
            }
        }
        // Longest paths (Floyd-Warshall); a positive cycle means no
        // schedule exists at this II.
        for (int k = 0; k < m; ++k) {
            for (int i = 0; i < m; ++i) {
                const long ik = span[i * m + k];
                if (ik == noPath)
                    continue;
                for (int j = 0; j < m; ++j) {
                    const long kj = span[k * m + j];
                    if (kj != noPath)
                        span[i * m + j] = std::max(span[i * m + j], ik + kj);
                }
            }
            for (int i = 0; i < m; ++i)
                if (span[i * m + i] > 0)
                    return {};
        }
        for (int i = 0; i < m; ++i) {
            long &bound = hi[members[i]];
            bound = noPath;
            for (int j = 0; j < m; ++j)
                bound = std::max(bound, entry[members[j]] - span[i * m + j]);
        }
    }
    return hi;
}

ExactEncoder::ExactEncoder(const Dfg &graph, const ResourceModel &model)
    : graph_(graph), model_(model),
      numClusters_(model.machine().numClusters())
{
    const int n = graph_.numNodes();
    eligible_.resize(n);
    asap_.assign(n, 0);
    copyCapable_.assign(n, 0);

    for (NodeId v = 0; v < n; ++v) {
        const FuClass cls = opcodeFuClass(graph_.node(v).op);
        for (ClusterId c = 0; c < numClusters_; ++c) {
            if (model_.fuPool(c, cls) != invalidPool)
                eligible_[v].push_back(c);
        }
        maxLatency_ = std::max(maxLatency_, graph_.node(v).latency);
        for (const NodeId succ : graph_.successors(v)) {
            if (succ != v)
                copyCapable_[v] = 1;
        }
    }

    // ASAP lower bounds over intra-iteration edges. A cross-cluster
    // route can beat the edge latency (copy latency 1 right after the
    // producer), so the sound per-edge weight is the cheaper of the
    // two paths. Bellman-style relaxation; a positive-weight
    // zero-distance cycle makes the loop unschedulable at any II.
    for (int pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (const DfgEdge &e : graph_.edges()) {
            if (e.distance != 0 || e.src == e.dst)
                continue;
            const int weight = std::min(
                e.latency, graph_.node(e.src).latency + 1);
            if (asap_[e.src] + weight > asap_[e.dst]) {
                asap_[e.dst] = asap_[e.src] + weight;
                changed = true;
            }
        }
        if (!changed)
            break;
        if (pass == n)
            positiveZeroCycle_ = true;
    }

    // Fully interchangeable clusters admit value-precedence symmetry
    // breaking (cluster k is used only after k-1).
    const MachineDesc &machine = model_.machine();
    identicalClusters_ = machine.broadcast();
    for (int c = 1; c < numClusters_ && identicalClusters_; ++c) {
        const ClusterDesc &a = machine.clusters[0];
        const ClusterDesc &b = machine.clusters[c];
        identicalClusters_ = a.gpUnits == b.gpUnits &&
                             a.fsUnits == b.fsUnits &&
                             a.readPorts == b.readPorts &&
                             a.writePorts == b.writePorts;
    }
}

bool
ExactEncoder::supported(std::string *why) const
{
    if (!model_.machine().broadcast()) {
        if (why)
            *why = "point_to_point_machine";
        return false;
    }
    for (const DfgNode &node : graph_.nodes()) {
        if (opcodeFuClass(node.op) == FuClass::None) {
            if (why)
                *why = "copy_opcode_in_input";
            return false;
        }
        if (eligible_[node.id].empty()) {
            if (why)
                *why = "node_unexecutable";
            return false;
        }
    }
    return true;
}

int
ExactEncoder::soundHorizon(int ii) const
{
    // Stage-compression bound: fix the rows of any feasible schedule
    // and solve the stage difference-constraint system to its least
    // solution; every arc contributes at most 1 + ceil((lat-1)/II)
    // stages along a simple path, so starts compress below
    // (annotated nodes + slack) * II + total annotated latency.
    int copies = 0;
    int totalLat = 0;
    for (const DfgNode &node : graph_.nodes()) {
        totalLat += std::max(node.latency, 1);
        if (copyCapable_[node.id])
            ++copies;
    }
    const int annotatedNodes = graph_.numNodes() + copies;
    const int compressed = totalLat + copies + (annotatedNodes + 3) * ii;
    // Per node, the same argument caps every start and every copy
    // start (latestStarts): the window need reach only past the
    // largest cap.
    const std::vector<long> hi = latestStarts(graph_, ii);
    if (hi.empty())
        return compressed;
    long capped = 2; // encode() needs two ladder slots
    for (const DfgNode &node : graph_.nodes()) {
        capped = std::max(capped, hi[node.id] + 1);
        if (copyCapable_[node.id])
            capped = std::max(capped, hi[node.id] + node.latency + ii);
    }
    return static_cast<int>(std::min<long>(compressed, capped));
}

int
ExactEncoder::fastHorizon(int ii) const
{
    int maxEnd = 1;
    for (const DfgNode &node : graph_.nodes())
        maxEnd = std::max(maxEnd, asap_[node.id] + node.latency);
    const int fast = maxEnd + 2 * ii + maxLatency_ + 2;
    return std::min(fast, soundHorizon(ii));
}

SatLit
ExactEncoder::clusterLit(NodeId v, ClusterId c) const
{
    cams_assert(cluster_[v][c] >= 0, "no cluster var");
    return mkLit(cluster_[v][c]);
}

SatLit
ExactEncoder::orderLit(NodeId v, int t) const
{
    return mkLit(order_[v][t]);
}

SatLit
ExactEncoder::copyOrderLit(NodeId v, int t) const
{
    return mkLit(copyOrder_[v][t]);
}

void
ExactEncoder::addPrecedence(SatSolver &solver,
                            const std::vector<SatVar> &fromOrder,
                            const std::vector<SatVar> &toOrder, int lag,
                            SatLit cond)
{
    const int T = horizon_;
    // "from >= t  ->  to >= t + lag" for every t; the order chains
    // make one clause per t sufficient. t with t+lag <= 0 is vacuous;
    // t+lag >= horizon caps `from` below t instead (and the chain
    // covers everything above).
    for (int t = 0; t < T; ++t) {
        const int target = t + lag;
        if (target <= 0)
            continue;
        clause_.assign(1, ~cond);
        if (t > 0)
            clause_.push_back(~mkLit(fromOrder[t]));
        if (target >= T) {
            solver.addClause(clause_);
            break;
        }
        clause_.push_back(mkLit(toOrder[target]));
        solver.addClause(clause_);
    }
}

void
ExactEncoder::atMostK(SatSolver &solver,
                      const std::vector<SatLit> &lits, int k)
{
    const int n = static_cast<int>(lits.size());
    if (n <= k)
        return;
    if (k <= 0) {
        for (const SatLit l : lits)
            solver.addClause(~l);
        return;
    }
    // Sinz sequential counter: reg(i, j) = "at least j+1 of the
    // first i+1 literals are true", rows for all but the last lit.
    counter_.resize(static_cast<size_t>(n - 1) * k);
    for (SatVar &var : counter_)
        var = solver.newVar();
    auto reg = [&](int i, int j) { return mkLit(counter_[i * k + j]); };

    solver.addClause(~lits[0], reg(0, 0));
    for (int j = 1; j < k; ++j)
        solver.addClause(~reg(0, j));
    for (int i = 1; i < n - 1; ++i) {
        solver.addClause(~lits[i], reg(i, 0));
        solver.addClause(~reg(i - 1, 0), reg(i, 0));
        for (int j = 1; j < k; ++j) {
            solver.addClause(~lits[i], ~reg(i - 1, j - 1), reg(i, j));
            solver.addClause(~reg(i - 1, j), reg(i, j));
        }
        solver.addClause(~lits[i], ~reg(i - 1, k - 1));
    }
    solver.addClause(~lits[n - 1], ~reg(n - 2, k - 1));
}

bool
ExactEncoder::encode(int ii, int horizon, SatSolver &solver,
                     std::string *why)
{
    if (!supported(why))
        return false;
    cams_assert(ii >= 1 && horizon >= 2, "degenerate exact instance");
    ii_ = ii;
    horizon_ = horizon;
    const int n = graph_.numNodes();
    const int C = numClusters_;
    const int T = horizon;

    cluster_.assign(n, std::vector<SatVar>(C, -1));
    order_.assign(n, {});
    copyActive_.assign(n, -1);
    copyNeed_.assign(n, std::vector<SatVar>(C, -1));
    copyOrder_.assign(n, {});

    // Infeasible at any II / at this II: a contradictory instance is
    // the honest encoding (the UNSAT answer is genuine).
    if (positiveZeroCycle_) {
        solver.addClause(std::span<const SatLit>());
        return true;
    }
    for (const DfgEdge &e : graph_.edges()) {
        if (e.src == e.dst &&
            e.latency - static_cast<long>(ii) * e.distance > 0) {
            solver.addClause(std::span<const SatLit>());
            return true;
        }
    }

    // --- Cluster assignment: exactly-one over eligible clusters. ---
    std::vector<SatLit> &clause = clause_;
    for (NodeId v = 0; v < n; ++v) {
        clause.clear();
        for (const ClusterId c : eligible_[v]) {
            cluster_[v][c] = solver.newVar();
            clause.push_back(clusterLit(v, c));
        }
        solver.addClause(clause);
        for (size_t i = 0; i < clause.size(); ++i)
            for (size_t j = i + 1; j < clause.size(); ++j)
                solver.addClause(~clause[i], ~clause[j]);
    }

    // Value-precedence symmetry breaking on interchangeable clusters:
    // node i may sit on cluster k>0 only if some earlier node sits on
    // cluster k-1. Any placement relabels into this form, so no
    // schedule is lost -- but UNSAT proofs shrink by ~C! per loop.
    bool uniformEligibility = true;
    for (NodeId v = 0; v < n; ++v)
        uniformEligibility &=
            static_cast<int>(eligible_[v].size()) == C;
    if (identicalClusters_ && uniformEligibility && C > 1) {
        for (NodeId v = 0; v < n; ++v) {
            for (int k = 1; k < C; ++k) {
                clause.assign(1, ~clusterLit(v, k));
                for (NodeId u = 0; u < v; ++u)
                    clause.push_back(clusterLit(u, k - 1));
                solver.addClause(clause);
            }
        }
    }

    // --- Time: order variables with ladder chains + ASAP bounds,
    // each ladder capped at its latest start. A slot at or below the
    // ASAP is always true and one above the cap always false, so they
    // all share one constant variable each; only the slots between
    // get variables of their own. ---
    const std::vector<long> latest = latestStarts(graph_, ii);
    const SatVar alwaysTrue = solver.newVar();
    solver.addClause(mkLit(alwaysTrue));
    const SatVar alwaysFalse = solver.newVar();
    solver.addClause(~mkLit(alwaysFalse));
    auto makeOrderChain = [&](std::vector<SatVar> &slots, int asap, long cap) {
        if (asap > cap) {
            // No start fits: say so explicitly.
            solver.addClause(std::span<const SatLit>());
        }
        slots.assign(T, -1);
        for (int t = 1; t < T; ++t) {
            if (t <= asap)
                slots[t] = alwaysTrue;
            else if (t > cap)
                slots[t] = alwaysFalse;
            else
                slots[t] = solver.newVar();
        }
        for (int t = std::max(asap, 0) + 1; t + 1 < T && t + 1 <= cap; ++t)
            solver.addClause(~mkLit(slots[t + 1]), mkLit(slots[t]));
    };
    for (NodeId v = 0; v < n; ++v)
        makeOrderChain(order_[v], asap_[v], latest.empty() ? T : latest[v]);

    // --- Copy machinery: spliceCopies' broadcast copies. ---
    for (NodeId v = 0; v < n; ++v) {
        if (!copyCapable_[v])
            continue;
        copyActive_[v] = solver.newVar();
        const int lat = graph_.node(v).latency;
        makeOrderChain(copyOrder_[v], asap_[v] + std::max(lat, 0),
                       latest.empty() ? T : latest[v] + lat + ii - 1);
        // Machines have at most 64 clusters (MachineDesc::maxClusters).
        uint64_t dstUniverse = 0;
        for (const NodeId succ : graph_.successors(v)) {
            if (succ == v)
                continue;
            for (const ClusterId c : eligible_[succ])
                dstUniverse |= uint64_t{1} << c;
        }
        for (ClusterId d = 0; d < C; ++d) {
            if (!(dstUniverse >> d & 1))
                continue;
            copyNeed_[v][d] = solver.newVar();
            solver.addClause(~mkLit(copyNeed_[v][d]),
                             mkLit(copyActive_[v]));
        }
        // The copy reads v's result: issue no earlier than v + lat.
        addPrecedence(solver, order_[v], copyOrder_[v],
                      graph_.node(v).latency, mkLit(copyActive_[v]));
    }

    // --- Same-cluster indicators per producer/consumer pair. ---
    // Edges with the same endpoints share one literal, kept under the
    // first of them in u's out-edges.
    same_.assign(graph_.numEdges(), -1);
    auto sameVar = [&](NodeId u, NodeId w) {
        EdgeId first = 0;
        for (const AdjEdge &edge : graph_.outEdges(u)) {
            if (edge.node == w) {
                first = edge.id;
                break;
            }
        }
        SatVar &same = same_[first];
        if (same >= 0)
            return same;
        same = solver.newVar();
        // same <-> OR_c (u on c AND w on c), via one aux per shared c.
        clause.assign(1, ~mkLit(same));
        for (const ClusterId c : eligible_[u]) {
            if (cluster_[w][c] < 0)
                continue;
            const SatVar both = solver.newVar();
            solver.addClause(~mkLit(both), clusterLit(u, c));
            solver.addClause(~mkLit(both), clusterLit(w, c));
            solver.addClause(~clusterLit(u, c), ~clusterLit(w, c),
                             mkLit(both));
            solver.addClause(~mkLit(both), mkLit(same));
            clause.push_back(mkLit(both));
        }
        solver.addClause(clause);
        return same;
    };

    // --- Dependence edges: timing + copy forcing. ---
    for (const DfgEdge &e : graph_.edges()) {
        if (e.src == e.dst)
            continue; // recurrence feasibility handled above
        const SatLit same = mkLit(sameVar(e.src, e.dst));
        const long lag = e.latency - static_cast<long>(ii) * e.distance;
        const long crossLag = 1 - static_cast<long>(ii) * e.distance;
        const int clampedLag =
            static_cast<int>(std::clamp<long>(lag, -T, T));
        const int clampedCross =
            static_cast<int>(std::clamp<long>(crossLag, -T, T));
        // Same cluster: the original edge as-is.
        addPrecedence(solver, order_[e.src], order_[e.dst], clampedLag,
                      same);
        // Cross cluster: producer -> copy -> consumer, copy latency 1
        // at the original distance (assign/exhaustive.cc semantics).
        solver.addClause(same, mkLit(copyActive_[e.src]));
        addPrecedence(solver, copyOrder_[e.src], order_[e.dst],
                      clampedCross, ~same);
        for (const ClusterId d : eligible_[e.dst]) {
            clause.assign({~clusterLit(e.dst, d), mkLit(copyNeed_[e.src][d])});
            if (cluster_[e.src][d] >= 0)
                clause.push_back(clusterLit(e.src, d));
            solver.addClause(clause);
        }
    }

    // --- Kernel rows: start = t implies row t mod II. ---
    auto makeRows = [&](const std::vector<SatVar> &slots) {
        std::vector<SatVar> rows(ii, -1);
        for (int r = 0; r < ii && r < T; ++r)
            rows[r] = solver.newVar();
        for (int t = 0; t < T; ++t) {
            clause.clear();
            if (t > 0)
                clause.push_back(~mkLit(slots[t]));
            if (t + 1 < T)
                clause.push_back(mkLit(slots[t + 1]));
            clause.push_back(mkLit(rows[t % ii]));
            solver.addClause(clause);
        }
        return rows;
    };
    std::vector<std::vector<SatVar>> row(n), copyRow(n);
    for (NodeId v = 0; v < n; ++v) {
        row[v] = makeRows(order_[v]);
        if (copyCapable_[v])
            copyRow[v] = makeRows(copyOrder_[v]);
    }

    // --- Resource usage literals, grouped per (pool, row), and per
    // pool over the whole kernel: every operation uses its pool in
    // exactly one of the II rows. A read-port use is a conjunction,
    // kept as a pair until its pool's count needs a literal. ---
    std::vector<std::vector<std::vector<SatLit>>> poolRow(
        model_.numPools(),
        std::vector<std::vector<SatLit>>(ii));
    std::vector<std::vector<SatLit>> kernel(model_.numPools());
    std::vector<std::vector<std::pair<SatLit, SatLit>>> reads(
        model_.numPools());
    auto usage = [&](PoolId pool, int r,
                     std::initializer_list<SatLit> conds) {
        const SatVar used = solver.newVar();
        clause.clear();
        for (const SatLit l : conds)
            clause.push_back(~l);
        clause.push_back(mkLit(used));
        solver.addClause(clause);
        poolRow[pool][r].push_back(mkLit(used));
    };

    for (NodeId v = 0; v < n; ++v) {
        const FuClass cls = opcodeFuClass(graph_.node(v).op);
        for (const ClusterId c : eligible_[v]) {
            const PoolId pool = model_.fuPool(c, cls);
            for (int r = 0; r < ii && r < T; ++r)
                usage(pool, r, {clusterLit(v, c), mkLit(row[v][r])});
            kernel[pool].push_back(clusterLit(v, c));
        }
        if (!copyCapable_[v])
            continue;
        const SatLit active = mkLit(copyActive_[v]);
        for (const ClusterId c : eligible_[v]) {
            const PoolId read = model_.readPool(c);
            if (read == invalidPool) {
                // No read ports: this cluster cannot source a copy.
                solver.addClause(~active, ~clusterLit(v, c));
                continue;
            }
            for (int r = 0; r < ii && r < T; ++r)
                usage(read, r,
                      {active, clusterLit(v, c),
                       mkLit(copyRow[v][r])});
            reads[read].emplace_back(active, clusterLit(v, c));
        }
        const PoolId bus = model_.busPool();
        if (bus == invalidPool) {
            solver.addClause(~active); // busless: no transfers at all
        } else {
            for (int r = 0; r < ii && r < T; ++r)
                usage(bus, r, {active, mkLit(copyRow[v][r])});
            kernel[bus].push_back(active);
        }
        for (ClusterId d = 0; d < C; ++d) {
            if (copyNeed_[v][d] < 0)
                continue;
            const PoolId write = model_.writePool(d);
            if (write == invalidPool) {
                solver.addClause(~mkLit(copyNeed_[v][d]));
                continue;
            }
            for (int r = 0; r < ii && r < T; ++r)
                usage(write, r,
                      {mkLit(copyNeed_[v][d]), mkLit(copyRow[v][r])});
            kernel[write].push_back(mkLit(copyNeed_[v][d]));
        }
    }
    for (PoolId pool = 0; pool < model_.numPools(); ++pool) {
        for (int r = 0; r < ii; ++r)
            atMostK(solver, poolRow[pool][r], model_.capacity(pool));
        // The row bounds imply the kernel-wide count; stated once, it
        // spares CDCL rediscovering it on every branch.
        const int k = model_.capacity(pool) * ii;
        if (static_cast<int>(reads[pool].size()) > k) {
            for (const auto &[active, on] : reads[pool]) {
                const SatVar used = solver.newVar();
                solver.addClause(~active, ~on, mkLit(used));
                kernel[pool].push_back(mkLit(used));
            }
        }
        atMostK(solver, kernel[pool], k);
    }

    // --- Anchor: some node starts at cycle 0. Any schedule shifts
    // uniformly (rows permute, dependences keep their slack) to meet
    // this, and it prunes the T-fold shift symmetry from the search.
    clause.clear();
    for (NodeId v = 0; v < n; ++v)
        clause.push_back(~mkLit(order_[v][1]));
    solver.addClause(clause);

    return true;
}

int
ExactEncoder::decodeStart(const SatSolver &solver,
                          const std::vector<SatVar> &order) const
{
    int start = 0;
    for (int t = 1; t < horizon_; ++t) {
        if (!solver.value(order[t]))
            break;
        start = t;
    }
    return start;
}

void
ExactEncoder::decode(const SatSolver &solver, AnnotatedLoop &loop,
                     Schedule &schedule) const
{
    const int n = graph_.numNodes();
    std::vector<ClusterId> clusterOf(n, invalidCluster);
    for (NodeId v = 0; v < n; ++v) {
        for (const ClusterId c : eligible_[v]) {
            if (solver.value(cluster_[v][c])) {
                clusterOf[v] = c;
                break;
            }
        }
        cams_assert(clusterOf[v] != invalidCluster,
                    "model without a cluster choice");
    }
    loop = spliceCopies(graph_, clusterOf, model_);

    // A broadcast copy's one in-edge comes from the value it carries.
    schedule = Schedule{};
    schedule.ii = ii_;
    schedule.startCycle.resize(loop.graph.numNodes());
    for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
        schedule.startCycle[v] =
            loop.isCopy(v)
                ? decodeStart(solver,
                              copyOrder_[loop.graph.inEdges(v)[0].node])
                : decodeStart(solver, order_[v]);
    }
}

} // namespace cams
