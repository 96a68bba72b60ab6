/**
 * @file
 * Timing analyses of a loop graph at a candidate initiation interval:
 * earliest/latest start times, mobility and height-based priorities.
 *
 * With modulo scheduling an edge e = (u, v) constrains
 *   start(v) >= start(u) + latency(e) - II * distance(e),
 * so all analyses are longest-path computations over edges weighted
 * latency - II*distance. They are well defined whenever II >= RecMII
 * (no positive cycles) and are computed by Bellman-Ford style
 * relaxation, which handles the cyclic graphs directly.
 */

#ifndef CAMS_GRAPH_ANALYSIS_HH
#define CAMS_GRAPH_ANALYSIS_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"

namespace cams
{

/** Timing facts about every node at a given II. */
struct TimeAnalysis
{
    int ii = 0;

    /** Earliest legal issue cycle of each node (>= 0). */
    std::vector<int> asap;

    /** Latest issue cycle consistent with the critical-path length. */
    std::vector<int> alap;

    /** alap - asap; 0 for critical nodes. */
    std::vector<int> mobility;

    /**
     * Modulo height: longest weighted path from the node to any sink,
     * including the node's own latency (Rau's HeightR analogue).
     */
    std::vector<int> height;

    /** Longest weighted path length: max(asap + latency). */
    int criticalPath = 0;
};

/**
 * Computes the timing analysis at the given II.
 *
 * Panics when the relaxation fails to converge, which means the graph
 * has a positive cycle at this II (i.e. II < RecMII).
 */
TimeAnalysis analyzeTiming(const Dfg &graph, int ii);

/**
 * Repeated timing analyses of one graph across an II escalation,
 * without recomputing the II-invariant structure each time.
 *
 * All per-II fixpoints are unique, so the solver returns exactly what
 * analyzeTiming would -- it just gets there faster: edges are
 * pre-sorted along the topological order of the distance-0 subgraph
 * (one relaxation pass settles the whole acyclic part, extra rounds
 * only pay for recurrence back-edges), and ASAP/height start from the
 * cached distance-0 fixpoints, which are pointwise lower bounds of
 * the true fixpoint at every II (loop-carried constraints only raise
 * longest paths). Note that seeding from a *previous II's* result
 * would be unsound -- fixpoints shrink as II grows, and an upward
 * relaxation cannot recover from an overestimate (see DESIGN.md).
 *
 * The result buffers are reused across solve() calls; the reference
 * returned is invalidated by the next solve at a different II.
 */
class TimingSolver
{
  public:
    explicit TimingSolver(const Dfg &graph);

    /** Same values as analyzeTiming(graph, ii); cached per II. */
    const TimeAnalysis &solve(int ii);

    /** True when the last solve(ii) was answered from cache. */
    bool lastWasHit() const { return lastWasHit_; }

  private:
    /** Edges by topological position of src (ASAP direction). */
    std::span<const EdgeId> forward() const
    {
        return {edgeOrder_.data(), edgeOrder_.size() / 2};
    }
    /** Edges by reverse topological position of dst (height/ALAP). */
    std::span<const EdgeId> backward() const
    {
        return {edgeOrder_.data() + edgeOrder_.size() / 2,
                edgeOrder_.size() / 2};
    }

    const Dfg *graph_;
    /** forward() then backward(). */
    std::vector<EdgeId> edgeOrder_;
    /** Distance-0 longest-path fixpoints, II-invariant seeds: every
     *  node's ASAP seed, then every node's height seed. */
    std::vector<int> seeds_;
    TimeAnalysis result_;
    bool hasResult_ = false;
    bool lastWasHit_ = false;
};

} // namespace cams

#endif // CAMS_GRAPH_ANALYSIS_HH
