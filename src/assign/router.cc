#include "assign/router.hh"

#include <cstdint>

#include "support/logging.hh"

namespace cams
{

void
planHops(const HopTree &tree, std::span<const ClusterId> dsts,
         std::vector<Hop> &out)
{
    cams_assert(tree.parent.size() <= static_cast<size_t>(maxClusters),
                "hop tree over more than ", maxClusters, " clusters");
    // Mark every cluster on some source->destination path.
    uint64_t needed = 0;
    for (ClusterId dst : dsts) {
        // Recoverable: these fire mid-assignment, where the driver can
        // classify the failure and fall back (see support/logging.hh).
        cams_check(dst != tree.source, "routing a value to its own cluster");
        cams_check(tree.depth[dst] > 0, "cluster ", dst, " unreachable from ",
                   tree.source);
        for (ClusterId at = dst; at != tree.source; at = tree.parent[at])
            needed |= uint64_t{1} << at;
    }

    // The tree's (depth, id) order puts parents before children.
    out.clear();
    for (ClusterId c : tree.order) {
        if ((needed >> c) & 1)
            out.push_back({tree.parent[c], c});
    }
}

std::vector<Hop>
planHops(const MachineDesc &machine, ClusterId src,
         const std::vector<ClusterId> &dsts)
{
    cams_assert(machine.interconnect == InterconnectKind::PointToPoint,
                "planHops on a bused machine");
    std::vector<Hop> hops;
    planHops(machine.hopTree(src), dsts, hops);
    return hops;
}

} // namespace cams
