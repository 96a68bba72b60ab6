/**
 * @file
 * Recurrence-constrained minimum initiation interval (RecMII).
 *
 * For every elementary cycle c of the dependence graph a modulo
 * schedule with initiation interval II must satisfy
 *   sum(latency(e) for e in c) <= II * sum(distance(e) for e in c),
 * so RecMII = max over cycles of ceil(sum_lat / sum_dist).
 *
 * We compute it per SCC by searching the smallest II for which the
 * constraint graph with edge weights lat(e) - II*dist(e) has no
 * positive cycle (Bellman-Ford based detection). The predicate is
 * monotone in II because every cycle inside an SCC of a well-formed
 * loop has total distance >= 1, which allows binary search.
 */

#ifndef CAMS_GRAPH_RECMII_HH
#define CAMS_GRAPH_RECMII_HH

#include <span>
#include <vector>

#include "graph/dfg.hh"
#include "graph/scc.hh"

namespace cams
{

/**
 * RecMII of one SCC (the subgraph induced by its member nodes).
 *
 * @param graph the full loop graph.
 * @param members nodes of the SCC.
 * @return the smallest feasible II contribution of this SCC; 1 for a
 *         trivial component.
 *
 * A dependence cycle with zero total distance (impossible to schedule
 * at any II) triggers fatal(): the input graph is malformed.
 */
int sccRecMii(const Dfg &graph, std::span<const NodeId> members);

/** RecMII over the whole graph: max of sccRecMii over all SCCs. */
int recMii(const Dfg &graph);

/** RecMII over the whole graph, reusing an existing decomposition. */
int recMii(const Dfg &graph, const SccInfo &sccs);

/**
 * True when some dependence cycle has zero total distance (a
 * zero-distance self-edge included): no II can schedule such a loop,
 * and the RecMII queries above treat it as a fatal input error. One
 * Kahn pass over the distance-0 edges, O(V + E).
 */
bool hasZeroDistanceCycle(const Dfg &graph);

/**
 * Tests whether the subgraph induced by the given nodes contains a
 * cycle of positive weight when edges weigh lat(e) - ii*dist(e).
 */
bool hasPositiveCycle(const Dfg &graph, std::span<const NodeId> members,
                      int ii);

} // namespace cams

#endif // CAMS_GRAPH_RECMII_HH
