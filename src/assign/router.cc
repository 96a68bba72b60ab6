#include "assign/router.hh"

#include <bit>
#include <cstdint>

#include "support/logging.hh"

namespace cams
{

uint64_t
hopTargets(const HopTree &tree, uint64_t dsts)
{
    cams_assert(tree.parent.size() <= static_cast<size_t>(maxClusters),
                "hop tree over more than ", maxClusters, " clusters");
    uint64_t targets = 0;
    for (uint64_t rest = dsts; rest != 0; rest &= rest - 1) {
        const ClusterId dst = std::countr_zero(rest);
        // Recoverable: these fire mid-assignment, where the driver can
        // classify the failure and fall back (see support/logging.hh).
        cams_check(dst != tree.source, "routing a value to its own cluster");
        cams_check(dst < static_cast<ClusterId>(tree.depth.size()) &&
                       tree.depth[dst] > 0,
                   "cluster ", dst, " unreachable from ", tree.source);
        for (ClusterId at = dst; at != tree.source; at = tree.parent[at])
            targets |= uint64_t{1} << at;
    }
    return targets;
}

void
planHops(const HopTree &tree, std::span<const ClusterId> dsts,
         std::vector<Hop> &out)
{
    uint64_t mask = 0;
    for (ClusterId dst : dsts)
        mask |= uint64_t{1} << dst;
    const uint64_t targets = hopTargets(tree, mask);

    // The tree's (depth, id) order puts parents before children.
    out.clear();
    for (ClusterId c : tree.order) {
        if ((targets >> c) & 1)
            out.push_back({tree.parent[c], c});
    }
}

} // namespace cams
