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

#include <cstdint>
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
 * The clusters a value sent from the tree's source to every cluster
 * of the mask @p dsts lands on: each cluster on a tree path to one of
 * them, relays included. Each receives one hop from its tree parent.
 *
 * Recoverable failure (cams_check) when a destination is the source
 * or unreachable; validated machines have no unreachable clusters.
 */
uint64_t hopTargets(const HopTree &tree, uint64_t dsts);

/**
 * The hops delivering a value from the tree's source to every cluster
 * in @p dsts: one onto each of their hopTargets, written to @p out
 * (cleared first) in (depth, id) order, so a hop's source is either
 * the tree's source or the target of an earlier hop -- the order copy
 * operations must be chained in the graph.
 */
void planHops(const HopTree &tree, std::span<const ClusterId> dsts,
              std::vector<Hop> &out);

} // namespace cams

#endif // CAMS_ASSIGN_ROUTER_HH
