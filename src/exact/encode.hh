/**
 * @file
 * CNF encoding of the joint cluster-assignment + modulo-scheduling
 * decision problem at a fixed II, for the exact backend.
 *
 * Variables, per original node v of the loop:
 *  - cluster vars c(v,k): exactly-one over the clusters whose
 *    function-unit pools can execute v;
 *  - order (ladder) time vars o(v,t) == "start(v) >= t" for
 *    t in [1, horizon), chained o(v,t+1) -> o(v,t). The start time is
 *    the number of true order vars, so dependence edges become the
 *    linear clauses ~o(u,t) \/ o(w, t+lag) -- no quadratic
 *    at-most-one over time slots;
 *  - row indicators row(v,r), r in [0, II), implied by "start = t"
 *    (one-directional: a spurious true row only wastes capacity,
 *    which preserves both soundness and completeness);
 *  - per-(cluster, row) usage literals feeding one sequential-counter
 *    (Sinz) at-most-K per resource pool and MRT row: function units
 *    for the node's FuClass, and for inter-cluster transfers the
 *    source read port, the shared bus, and each destination's write
 *    port;
 *  - per pool, one kernel-wide at-most-(K * II) over the literals
 *    that say an operation uses the pool at all: c(v,k) for a
 *    function-unit pool, the copy-active literal for the bus, the
 *    copy-need literal of destination d for d's write port, and for
 *    source k's read port a literal implied by copy-active and c(v,k)
 *    (made only when that count can bind).
 *
 * Copies are the broadcast copies of spliceCopies (assign/
 * assignment.hh): one per producer with cross-cluster consumers, edge
 * v->copy at v's latency and distance 0, copy->consumer at latency 1
 * and the original distance. The decoder reads back only the clusters
 * and start cycles and builds the loop with spliceCopies itself, so a
 * decoded model is annotated as the heuristic's would be and passes
 * AnnotatedLoop::validate and the independent verifier. Point-to-point
 * (multi-hop) machines are not encoded; the caller reports them as
 * unsupported.
 *
 * Completeness over the horizon: any feasible schedule can be shifted
 * (uniformly, preserving rows and dependences) so its earliest start
 * is 0, and a stage-compression argument bounds the latest start by
 * soundHorizon(ii); a SAT answer at any horizon is a real schedule,
 * and an UNSAT answer at soundHorizon(ii) is a certificate that no
 * schedule exists at this II. fastHorizon(ii) is a smaller window
 * that finds almost every satisfiable instance cheaply; the solver
 * escalates to the sound horizon only to certify UNSAT.
 *
 * Every window also caps every node's ladder at its own latest start,
 * latestStarts(graph, ii), and every copy's at its producer's cap +
 * lat + II - 1: the same stage-compression argument, applied per
 * node. Fix a feasible schedule's rows, lower its stages to the least
 * non-negative solution and shift its earliest start to 0 (which
 * lowers every start). Every start is then below II, or reached from
 * such a start by a chain of tight edges. A tight edge adds its lag
 * plus at most II - 1 cycles of rounding, and a cross-cluster edge
 * rounds twice (producer to copy, copy to consumer). The chain enters
 * each SCC once, and inside an SCC every schedule has s(y) - s(x) >=
 * span(x, y), so a member is bounded by the entry bound of whichever
 * member the chain entered through, less their span. A chain rooted
 * at a copy of a member a bounds a itself below II - lat_a, so the
 * same holds.
 *
 * A window's starts are non-negative, so its schedule's own stages
 * solve the same system and the least stages lie at or below them:
 * normalising moves no start later. The normal form of a schedule
 * that fits a window thus fits the same window -- a fast window
 * shorter than soundHorizon(ii) included -- and meets every cap. So
 * the caps cut no schedule from any window: a window is SAT with
 * them exactly when it is SAT without them, an UNSAT answer at
 * soundHorizon(ii) stays a certificate while one in a shorter window
 * is still none, and root propagation drops every ladder slot above a
 * cap before the search.
 *
 * The caps also bound the window: soundHorizon(ii) is the smaller of
 * the stage-compression bound and one past the largest cap, a node's
 * hi(v) or its copy's hi(v) + lat + II - 1. Every normalised start
 * and copy start lies below it, so the window stays complete; when
 * it fits inside the fast window the two coincide and a certificate
 * takes a single solve.
 *
 * The kernel-wide counts cut no schedule either. Set every literal
 * from a schedule -- its clusters, its copies and the destinations
 * each copy serves -- and each literal a count sees marks one
 * operation that occupies the pool in exactly one row (its start mod
 * II). Each row holds at most K of them, so the II rows hold at most
 * K * II. The row counters imply the counts; stated once, CDCL need
 * not rediscover them on every branch.
 */

#ifndef CAMS_EXACT_ENCODE_HH
#define CAMS_EXACT_ENCODE_HH

#include <string>
#include <vector>

#include "assign/assignment.hh"
#include "exact/sat.hh"
#include "graph/dfg.hh"
#include "mrt/mrt.hh"
#include "sched/schedule.hh"

namespace cams
{

/**
 * Upper bound on every node's start in any feasible schedule of
 * @p graph at @p ii, once the schedule is normalised as above (rows
 * fixed, least stages, earliest start 0); latencies must be
 * non-negative. With
 * l(e) = min(lat_e, lat_u + 1) - II * d_e for an edge e = u -> w,
 * u != w (the cheaper of same-cluster and via-copy), span(x, y) the
 * longest l-path x ~> y inside an SCC S, and the SCCs taken in
 * topological order:
 *
 *   entry(y) = max(II - 1, max over edges e = a -> y, a outside S, of
 *                  hi(a) + max(lat_e - II*d_e + II - 1,
 *                              lat_a + 1 - II*d_e + 2(II - 1)))
 *   hi(x)    = max over y in S of entry(y) - span(x, y)
 *
 * Empty when some SCC has a positive l-cycle: no schedule exists at
 * this II, so there is nothing to bound.
 */
std::vector<long> latestStarts(const Dfg &graph, int ii);

/** Builds and decodes the per-II CNF instances of one loop. */
class ExactEncoder
{
  public:
    ExactEncoder(const Dfg &graph, const ResourceModel &model);

    /**
     * Static support check (II-independent): bused interconnect,
     * every node executable on some cluster, no pre-existing copy
     * opcodes. False fills @p why with a stable slug.
     */
    bool supported(std::string *why) const;

    /**
     * Horizon that preserves completeness: UNSAT at this window is a
     * true infeasibility certificate for the II.
     */
    int soundHorizon(int ii) const;

    /** Cheaper window for the initial SAT hunt (never exceeds
     *  soundHorizon). UNSAT here is *not* a certificate. */
    int fastHorizon(int ii) const;

    /**
     * Emits the CNF for one (ii, horizon) instance into a fresh
     * solver, every ladder capped at latestStarts(graph, ii) whatever
     * the horizon. Returns false only for unsupported inputs (see
     * supported()); a trivially infeasible II yields an
     * already-contradictory solver instead.
     */
    bool encode(int ii, int horizon, SatSolver &solver,
                std::string *why = nullptr);

    /**
     * Reads the model of the last encoded instance back into an
     * annotated loop (the model's clusters, spliced by spliceCopies)
     * and its schedule: each copy starts where the copy-order ladder of
     * the value on its in-edge says. Valid only after that solver
     * returned Sat.
     */
    void decode(const SatSolver &solver, AnnotatedLoop &loop,
                Schedule &schedule) const;

  private:
    SatLit clusterLit(NodeId v, ClusterId c) const;
    SatLit orderLit(NodeId v, int t) const;     ///< start(v) >= t
    SatLit copyOrderLit(NodeId v, int t) const; ///< copyStart(v) >= t

    /** t(to) >= t(from) + lag whenever @p cond is true. */
    void addPrecedence(SatSolver &solver,
                       const std::vector<SatVar> &fromOrder,
                       const std::vector<SatVar> &toOrder, int lag,
                       SatLit cond);

    /** Sinz sequential at-most-k over the literals. */
    void atMostK(SatSolver &solver, const std::vector<SatLit> &lits, int k);

    int decodeStart(const SatSolver &solver,
                    const std::vector<SatVar> &order) const;

    const Dfg &graph_;
    const ResourceModel &model_;
    int numClusters_ = 0;

    // II-independent facts, computed once.
    std::vector<std::vector<ClusterId>> eligible_;
    std::vector<int> asap_;       ///< d=0 longest-path lower bounds
    std::vector<char> copyCapable_; ///< has a non-self successor
    bool identicalClusters_ = false;
    bool positiveZeroCycle_ = false; ///< infeasible at every II
    int maxLatency_ = 1;

    // Per-encode state (rebuilt by every encode call).
    int ii_ = 0;
    int horizon_ = 0;
    std::vector<std::vector<SatVar>> cluster_; ///< [v][c], -1 = none
    std::vector<std::vector<SatVar>> order_;   ///< [v][t], t >= 1
    std::vector<SatVar> copyActive_;           ///< [v], -1 = none
    std::vector<std::vector<SatVar>> copyNeed_;  ///< [v][dst]
    std::vector<std::vector<SatVar>> copyOrder_; ///< [v][t]

    // Scratch reused across clauses and encodes.
    std::vector<SatLit> clause_;
    std::vector<SatVar> counter_; ///< Sinz registers, [i * k + j]
    std::vector<SatVar> same_;    ///< [edge], -1 = not made yet
};

} // namespace cams

#endif // CAMS_EXACT_ENCODE_HH
