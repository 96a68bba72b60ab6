/**
 * @file
 * Per-loop analysis context shared across an II escalation.
 *
 * The driver probes candidate IIs from MII upward, and both phases
 * historically recomputed every analysis at every probe: the assigner
 * re-derived SCCs, priority sets, timing and the swing order per
 * rotation per II, and the schedulers re-ran the full RecMII binary
 * search per call. Almost all of that is II-invariant. A LoopContext
 * owns one loop graph's facts and computes each exactly once:
 *
 *   II-invariant: SCC decomposition, priority node sets, per-SCC and
 *   whole-graph RecMII, per-node resource requests, the structural
 *   assignability check.
 *
 *   II-dependent, solved incrementally: TimeAnalysis (via
 *   TimingSolver's cached acyclic seeds and pre-sorted edges), the
 *   swing order at the current II, and feasibility at an II (a single
 *   positive-cycle test per recurrence instead of the binary search,
 *   with monotone bounds remembered across probes).
 *
 * Neighbour reads need no cache here: the graph is sealed (see
 * graph/dfg.hh), so the assigner, the swing order and the schedulers
 * read its flat edge and neighbour rows directly, allocation-free.
 *
 * Everything returned equals the direct computation -- all cached
 * facts are unique fixpoints or deterministic function results
 * (tests/context_test.cc checks the timing, feasibility and RecMII
 * answers against the direct analyses). Every compile runs on a
 * context; ClusterAssigner::run and ModuloScheduler::schedule make a
 * private one when the caller passes none.
 *
 * The context also keeps working buffers that outlive one call: the
 * swing order's arrays, the MRT it lends to the assigner, and the
 * assigner's attempt state, so restarts and II probes reuse their
 * capacity instead of allocating afresh. Lending them out counts
 * neither a hit nor a miss.
 *
 * A context is single-threaded, like the compile it serves; batch
 * parallelism stays at the loop level.
 */

#ifndef CAMS_PIPELINE_CONTEXT_HH
#define CAMS_PIPELINE_CONTEXT_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "assign/assignment.hh"
#include "graph/analysis.hh"
#include "graph/dfg.hh"
#include "graph/scc.hh"
#include "mrt/mrt.hh"
#include "order/scc_sets.hh"
#include "order/swing_order.hh"

namespace cams
{

/** Per-node resource requests of an annotated loop, flat. */
class RequestTable
{
  public:
    /** The pools node v needs, as AnnotatedLoop::requestInto names them. */
    std::span<const PoolId> operator[](NodeId v) const
    {
        return {pools_.data() + offsets_[v],
                pools_.data() + offsets_[v + 1]};
    }

  private:
    friend class LoopContext;
    std::vector<PoolId> pools_;
    std::vector<int> offsets_;
};

class AssignState;

/** Deletes the assigner's state, where its type is complete. */
struct AssignStateDeleter
{
    void operator()(AssignState *state) const;
};

/** Lazily-computed, cached analyses of one loop graph. */
class LoopContext
{
  public:
    /** Binds the context to a graph (not owned; must outlive it). */
    explicit LoopContext(const Dfg &graph);

    const Dfg &graph() const { return *graph_; }

    /** SCC decomposition (computed once). */
    const SccInfo &sccs();

    /** The Section 4.1 priority sets (computed once). */
    const NodeSets &prioritySets();

    /**
     * Whole-graph RecMII. Derived from the priority sets' per-SCC
     * values, so the binary searches run once for both consumers.
     */
    int recMii();

    /**
     * True when the graph has no positive cycle at this II, i.e.
     * ii >= RecMII. Uses one Bellman-Ford pass per recurrence instead
     * of the full RecMII search, and remembers the monotone bounds:
     * once an II is known feasible every larger II answers from
     * cache, and vice versa.
     */
    bool schedulableAt(int ii);

    /** Timing analysis at the II (incremental; see TimingSolver). */
    const TimeAnalysis &timing(int ii);

    /** Swing order at the II (cached for the current II). */
    const std::vector<NodeId> &swingOrder(int ii);

    /**
     * Per-node resource requests of an annotated loop (II-invariant).
     * Keyed by the (loop, model) identities; a different pair
     * recomputes, so one context serves one loop/machine at a time.
     */
    const RequestTable &requests(const AnnotatedLoop &loop,
                                 const ResourceModel &model);

    /**
     * The assigner's input preconditions (well-formed, no copies,
     * machine can execute every opcode), checked once per machine;
     * cams_fatal with the assigner's exact diagnostics on violation.
     */
    void checkAssignable(const MachineDesc &machine);

    /**
     * A cleared MRT of the given length, reusing one table across II
     * probes and restarts instead of reconstructing it.
     */
    Mrt &scratchMrt(const ResourceModel &model, int ii);

    /**
     * The cluster assigner's attempt state (assign/assigner.cc), kept
     * so that restarts and II probes reuse its buffers; null until
     * the assigner's first attempt makes it.
     */
    std::unique_ptr<AssignState, AssignStateDeleter> &assignState()
    {
        return assignState_;
    }

    /** Queries answered from cache / computed fresh. */
    long hits() const { return hits_; }
    long misses() const { return misses_; }

  private:
    const Dfg *graph_;

    std::optional<SccInfo> sccs_;
    std::optional<NodeSets> sets_;
    std::optional<int> recMii_;
    std::optional<TimingSolver> timingSolver_;

    /** Feasibility bounds: monotone in II. */
    int knownSchedulable_ = -1;   ///< smallest II proven feasible
    int knownInfeasible_ = -1;    ///< largest II proven infeasible

    int orderIi_ = -1;
    std::vector<NodeId> order_;
    SwingScratch swingScratch_;

    const AnnotatedLoop *requestsLoop_ = nullptr;
    const ResourceModel *requestsModel_ = nullptr;
    RequestTable requests_;

    std::string assignableMachine_;
    Mrt scratch_;
    std::unique_ptr<AssignState, AssignStateDeleter> assignState_;

    long hits_ = 0;
    long misses_ = 0;
};

} // namespace cams

#endif // CAMS_PIPELINE_CONTEXT_HH
