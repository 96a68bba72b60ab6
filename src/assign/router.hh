/**
 * @file
 * Copy routing.
 *
 * On a bused machine a value reaches any set of destination clusters
 * with a single broadcast copy, so no routing is needed. On a
 * point-to-point machine (the paper's grid, Figure 4) a value must be
 * relayed hop by hop along links; a destination two hops away costs a
 * chain of two copies. This module plans the set of hops -- a subtree
 * of the source cluster's BFS shortest-path tree (HopTree), so that
 * routes to multiple destinations share their common prefix.
 */

#ifndef CAMS_ASSIGN_ROUTER_HH
#define CAMS_ASSIGN_ROUTER_HH

#include <span>
#include <vector>

#include "machine/machine.hh"

namespace cams
{

/** One relay step of a routed copy. */
struct Hop
{
    ClusterId from = invalidCluster;
    ClusterId to = invalidCluster;

    bool operator==(const Hop &other) const = default;
};

/**
 * Plans the hops delivering a value from the tree's source to every
 * cluster in @p dsts: each cluster on a tree path to a destination
 * receives one hop from its tree parent. Hops are written to @p out
 * (cleared first) in (depth, id) order, so a hop's source is either
 * the tree's source or the target of an earlier hop -- the order copy
 * operations must be chained in the graph.
 *
 * Recoverable failure (cams_check) when a destination is the source
 * or unreachable; validated machines have no unreachable clusters.
 */
void planHops(const HopTree &tree, std::span<const ClusterId> dsts,
              std::vector<Hop> &out);

/**
 * The same plan over the machine's own BFS tree from @p src
 * (point-to-point machines only).
 */
std::vector<Hop> planHops(const MachineDesc &machine, ClusterId src,
                          const std::vector<ClusterId> &dsts);

} // namespace cams

#endif // CAMS_ASSIGN_ROUTER_HH
