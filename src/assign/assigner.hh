/**
 * @file
 * The cluster assignment engine (the paper's Section 4).
 *
 * Given a loop graph, a machine and a candidate II, the assigner maps
 * every operation to a cluster and inserts the copy operations needed
 * by inter-cluster dependences, packing everything into per-cluster
 * modulo reservation tables of length II. Its three pillars:
 *
 *  1. Node grouping and ordering (§4.1): recurrences first, most
 *     critical SCC first, swing order within each set.
 *  2. Tentative assignment and selection (§4.2): each node is
 *     tentatively placed on every cluster; the Figure 10 cascade --
 *     SCC affinity, the PCR<=MRC copy-space prediction, fewest
 *     required copies, most free resources -- picks the winner.
 *  3. Iteration (§4.3): when no cluster is feasible, the node is
 *     forced onto the Figure 11 cluster, conflicting nodes are
 *     evicted and re-queued, and a per-node previously-tried-cluster
 *     list prevents repetition. An eviction budget guarantees
 *     termination; exhausting it fails the II so the driver retries
 *     with a larger one.
 *
 * The four variants evaluated in the paper's Figures 12/13 are
 * exposed through AssignOptions: {iterative} x {full heuristic}.
 */

#ifndef CAMS_ASSIGN_ASSIGNER_HH
#define CAMS_ASSIGN_ASSIGNER_HH

#include <string>
#include <vector>

#include "assign/assignment.hh"
#include "graph/dfg.hh"
#include "mrt/mrt.hh"
#include "support/fault.hh"
#include "support/trace.hh"

namespace cams
{

class LoopContext;

/** Which assignment policy drives cluster selection. */
enum class AssignPolicy
{
    /** The paper's algorithm (Figures 9-11). */
    Paper,

    /**
     * A BUG-flavored baseline (Ellis; see the paper's §1.4 related
     * work): nodes in acyclic dependence order, each placed on the
     * cluster minimizing its estimated completion time -- the
     * schedule-length objective of trace scheduling. Recurrence
     * criticality and copy prediction are ignored, which is exactly
     * why the paper argues such schemes fit modulo scheduling poorly.
     */
    AcyclicBug,
};

/**
 * Fig. 11 evictions allowed per assignment attempt, per node (16 at
 * least). Exhausting the budget fails the attempt.
 */
constexpr double evictionBudgetPerNode = 6.0;

/** Algorithm variant knobs (paper Section 6 nomenclature). */
struct AssignOptions
{
    AssignPolicy policy = AssignPolicy::Paper;

    /** Evict-and-retry past failures (§4.3); false = fail at once. */
    bool iterative = true;

    /** Apply Figure 10 lines 3-8; false = "Simple" selection. */
    bool fullHeuristic = true;

    /**
     * Ablation knobs for the individual ingredients of the full
     * heuristic (all on by default; ignored when fullHeuristic is
     * false). Used by the ablation experiments to isolate what each
     * contributes.
     */
    bool useSccAffinity = true;  ///< Figure 10 line 4
    bool usePcrPrediction = true; ///< Figure 10 line 6 (PCR <= MRC)
    bool useSwingOrder = true;   ///< false: assign in plain id order

    /**
     * Attempts per II before giving up (iterative variants only).
     * Each restart rotates the tie-breaks of the selection cascade,
     * exploring a different corner of the search space; the first
     * attempt always uses the canonical (paper) tie-breaking.
     */
    int restartsPerIi = 3;

    /**
     * Optional fault injector (non-owning; stress testing only).
     * Sites consulted: AssignEvictionStorm vetoes the selection
     * cascade's winner, RouterBusExhaustion fails a copy reservation.
     */
    FaultInjector *faults = nullptr;

    /**
     * Decision tracing (non-owning sink; off when null). At
     * TraceLevel::Decision the assigner emits one "assign_decide"
     * instant per placement with the Figure 10 per-cluster verdicts,
     * plus "force_place" instants for every Figure 11 repair round
     * with the evictor, the evictees and the tried-list size.
     */
    TraceConfig trace;
};

/** Outcome of one assignment attempt at a fixed II. */
struct AssignResult
{
    bool success = false;

    /** The annotated loop handed to the scheduler (success only). */
    AnnotatedLoop loop;

    /** Cluster of each original node (success only). */
    std::vector<ClusterId> clusterOf;

    /** Copy operations inserted. */
    int copies = 0;

    /** Evictions performed by the iterative mechanism. */
    int evictions = 0;

    /**
     * Failure classification (failures only). AssignLivelock when the
     * §4.3 repair dead-ended or blew its eviction budget,
     * InternalInvariant when every restart died in a cams_check; None
     * for the ordinary no-feasible-cluster outcome (the driver maps
     * that to IiExhausted after the II search runs dry).
     */
    FailureKind failure = FailureKind::None;

    /** Human-readable diagnosis matching `failure`. */
    std::string detail;

    /** Restarts abandoned because a cams_check invariant fired. */
    int invariantFailures = 0;

    /**
     * Wall time of the §4.1 ordering work (SCC sets, timing, swing
     * order) and of the copy-routing work (planning + reserving
     * communication inside tentative and committed placements),
     * accumulated over restarts; the driver folds both into
     * CompileResult's per-phase times. Ordering is always recorded.
     * Routing costs two clock reads per placement, so it is recorded
     * only when options.trace is active at TraceLevel::Phase and is
     * 0 otherwise.
     */
    double orderMillis = 0.0;
    double routeMillis = 0.0;

    /** MRT occupancy words examined. */
    long wordScans = 0;
};

/** Runs cluster assignment for loops on one machine. */
class ClusterAssigner
{
  public:
    /** Binds the assigner to a machine's resource model. */
    explicit ClusterAssigner(const ResourceModel &model,
                             AssignOptions options = {});

    /**
     * Assigns the loop at the given II.
     *
     * The graph must be well formed and executable on the machine.
     * A single-cluster machine runs the same search, with one
     * candidate cluster per node.
     *
     * The II-invariant analyses (SCCs, timing, swing order,
     * preconditions) come from a LoopContext for the same graph, and
     * its MRT buffer is reused across restarts; passing the context
     * of an II escalation keeps both across II probes too. Null runs
     * on a private context.
     */
    AssignResult run(const Dfg &graph, int ii,
                     LoopContext *ctx = nullptr) const;

  private:
    /** One attempt with the given tie-break rotation offset. */
    AssignResult runAttempt(const Dfg &graph, int ii, int rotation,
                            Mrt &mrt, LoopContext &ctx) const;

    const ResourceModel &model_;
    AssignOptions options_;
};

} // namespace cams

#endif // CAMS_ASSIGN_ASSIGNER_HH
