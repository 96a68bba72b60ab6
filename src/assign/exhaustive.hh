/**
 * @file
 * Exhaustive cluster-assignment oracle for small loops.
 *
 * Enumerates every cluster partition of the operations and checks
 * count-mode resource feasibility (function units, the per-value
 * copies with their ports and buses/links) plus the recurrence bound
 * of the annotated graph. Exponential, so only usable for a handful
 * of operations -- which is exactly what makes it a trustworthy
 * quality oracle for the heuristic in tests and analyses: when the
 * oracle proves no assignment exists at an II, a deviation there is
 * optimal, and when it finds one, the heuristic should not be far
 * behind.
 */

#ifndef CAMS_ASSIGN_EXHAUSTIVE_HH
#define CAMS_ASSIGN_EXHAUSTIVE_HH

#include <vector>

#include "assign/assignment.hh"
#include "graph/dfg.hh"
#include "mrt/mrt.hh"

namespace cams
{

/** Oracle verdict for one loop at one II. */
enum class ExhaustiveVerdict
{
    Feasible,   ///< some partition fits the resources at this II
    Infeasible, ///< no partition fits: a larger II is unavoidable
    TooLarge,   ///< the loop exceeds the enumeration budget
};

/** A verdict plus the witness partition (Feasible only). */
struct ExhaustivePartition
{
    ExhaustiveVerdict verdict = ExhaustiveVerdict::Infeasible;

    /** Cluster of each original node (verdict == Feasible only). */
    std::vector<ClusterId> clusterOf;
};

/**
 * Searches all placements of the loop at the given II.
 *
 * @param max_nodes enumeration cutoff: numClusters^numNodes must not
 *        exceed numClusters^max_nodes.
 *
 * The feasibility model matches the assignment phase: one FU slot per
 * op, then the copies of the partition's spliceCopies loop (one
 * broadcast copy per crossing value on bused machines, a BFS hop chain
 * on point-to-point ones); and that loop's recurrence bound RecMII
 * must not exceed the II (split recurrences pay their copy latency).
 */
ExhaustiveVerdict exhaustiveFeasible(const Dfg &graph,
                                     const ResourceModel &model, int ii,
                                     int max_nodes = 14);

/**
 * Like exhaustiveFeasible, but returns the first feasible partition so
 * it can actually be compiled. This is what the pipeline driver's
 * degradation ladder runs when the heuristic assigner gives up on a
 * small loop (see pipeline/driver.hh).
 */
ExhaustivePartition exhaustiveAssign(const Dfg &graph,
                                     const ResourceModel &model, int ii,
                                     int max_nodes = 14);

/**
 * A fixed partition as a schedulable AnnotatedLoop: spliceCopies over
 * a ResourceModel of @p machine, the same splice every annotated loop
 * gets. Callers that hold a model call spliceCopies directly.
 */
AnnotatedLoop annotatePartition(const Dfg &graph,
                                const std::vector<ClusterId> &cluster_of,
                                const MachineDesc &machine);

/**
 * Smallest II in [lower, limit] the oracle accepts, or 0 when the
 * loop is too large to enumerate (and -1 when nothing up to the
 * limit works).
 */
int exhaustiveBestIi(const Dfg &graph, const ResourceModel &model,
                     int lower, int limit, int max_nodes = 14);

} // namespace cams

#endif // CAMS_ASSIGN_EXHAUSTIVE_HH
