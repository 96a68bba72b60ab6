#include "machine/machine.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/logging.hh"

namespace cams
{

int
ClusterDesc::fuCount(FuClass cls) const
{
    if (cls == FuClass::None)
        return 0;
    if (usesGpPool())
        return gpUnits;
    return fsUnits[static_cast<int>(cls)];
}

int
ClusterDesc::width() const
{
    if (usesGpPool())
        return gpUnits;
    int total = 0;
    for (int units : fsUnits)
        total += units;
    return total;
}

const ClusterDesc &
MachineDesc::cluster(ClusterId id) const
{
    cams_assert(id >= 0 && id < numClusters(), "bad cluster id ", id);
    return clusters[id];
}

int
MachineDesc::fuCount(ClusterId id, FuClass cls) const
{
    return cluster(id).fuCount(cls);
}

int
MachineDesc::totalWidth() const
{
    int total = 0;
    for (const auto &c : clusters)
        total += c.width();
    return total;
}

bool
MachineDesc::canExecute(Opcode op) const
{
    if (op == Opcode::Copy)
        return numClusters() > 1;
    const FuClass cls = opcodeFuClass(op);
    for (ClusterId c = 0; c < numClusters(); ++c) {
        if (fuCount(c, cls) > 0)
            return true;
    }
    return false;
}

int
MachineDesc::linkBetween(ClusterId a, ClusterId b) const
{
    for (size_t i = 0; i < links.size(); ++i) {
        if ((links[i].a == a && links[i].b == b) ||
            (links[i].a == b && links[i].b == a)) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

std::vector<ClusterId>
MachineDesc::neighbors(ClusterId id) const
{
    std::vector<ClusterId> result;
    if (interconnect == InterconnectKind::Bus) {
        for (ClusterId c = 0; c < numClusters(); ++c) {
            if (c != id)
                result.push_back(c);
        }
        return result;
    }
    for (const LinkDesc &link : links) {
        if (link.a == id)
            result.push_back(link.b);
        else if (link.b == id)
            result.push_back(link.a);
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

std::vector<ClusterId>
MachineDesc::route(ClusterId src, ClusterId dst) const
{
    cams_assert(src != dst, "route from cluster to itself");
    if (interconnect == InterconnectKind::Bus)
        return {src, dst};

    const HopTree tree = hopTree(src);
    if (tree.depth[dst] < 0)
        return {};
    std::vector<ClusterId> path(tree.depth[dst] + 1);
    ClusterId at = dst;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        *it = at;
        at = tree.parent[at];
    }
    return path;
}

HopTree
MachineDesc::hopTree(ClusterId src) const
{
    const int n = numClusters();
    cams_assert(src >= 0 && src < n, "bad cluster id ", src);
    cams_assert(n <= maxClusters, "more than ", maxClusters, " clusters");
    // Neighbor sets as masks: walking the set bits visits neighbors in
    // ascending id, as neighbors() lists them, so the tree is
    // deterministic.
    std::array<uint64_t, maxClusters> adjacent{};
    if (interconnect == InterconnectKind::Bus) {
        const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
        for (ClusterId c = 0; c < n; ++c)
            adjacent[c] = all & ~(uint64_t{1} << c);
    } else {
        for (const LinkDesc &link : links) {
            adjacent[link.a] |= uint64_t{1} << link.b;
            adjacent[link.b] |= uint64_t{1} << link.a;
        }
    }

    HopTree tree;
    tree.source = src;
    tree.parent.assign(n, invalidCluster);
    tree.depth.assign(n, -1);
    // The BFS queue, which becomes the (depth, id) order.
    std::vector<ClusterId> &queue = tree.order;
    queue.reserve(n);
    queue.push_back(src);
    tree.depth[src] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
        const ClusterId at = queue[head];
        for (uint64_t rest = adjacent[at]; rest != 0; rest &= rest - 1) {
            const ClusterId next = std::countr_zero(rest);
            if (tree.depth[next] < 0) {
                tree.depth[next] = tree.depth[at] + 1;
                tree.parent[next] = at;
                queue.push_back(next);
            }
        }
    }
    queue.erase(queue.begin());
    std::sort(queue.begin(), queue.end(), [&](ClusterId x, ClusterId y) {
        if (tree.depth[x] != tree.depth[y])
            return tree.depth[x] < tree.depth[y];
        return x < y;
    });
    return tree;
}

MachineDesc
MachineDesc::unifiedEquivalent() const
{
    MachineDesc unified;
    unified.name = name + "-unified";
    unified.interconnect = InterconnectKind::Bus;
    unified.numBuses = 0;

    ClusterDesc merged;
    bool any_gp = false;
    for (const ClusterDesc &c : clusters) {
        if (c.usesGpPool()) {
            any_gp = true;
            merged.gpUnits += c.gpUnits;
        } else {
            for (int cls = 0; cls < numFuClasses; ++cls)
                merged.fsUnits[cls] += c.fsUnits[cls];
        }
    }
    if (any_gp) {
        // A machine mixing GP and FS clusters widens into a GP pool of
        // the total width; the paper only uses homogeneous machines.
        for (int cls = 0; cls < numFuClasses; ++cls) {
            merged.gpUnits += merged.fsUnits[cls];
            merged.fsUnits[cls] = 0;
        }
    }
    merged.readPorts = 0;
    merged.writePorts = 0;
    unified.clusters.push_back(merged);
    return unified;
}

std::string
MachineDesc::validationError() const
{
    // Built on failing branches only: a valid machine costs no string.
    auto fail = [&](const std::string &what) {
        return "machine '" + name + "'" + what;
    };
    if (clusters.empty())
        return fail(" has no clusters");
    if (numClusters() > maxClusters) {
        return fail(": more than " + std::to_string(maxClusters) +
                    " clusters");
    }
    for (const ClusterDesc &c : clusters) {
        if (c.gpUnits < 0 || c.readPorts < 0 || c.writePorts < 0)
            return fail(": negative resource count");
        // Counts read from outside bytes may be near INT_MAX, so test
        // for a zero width without summing them the way width() does.
        bool any_units = c.gpUnits > 0;
        for (int units : c.fsUnits) {
            if (units < 0)
                return fail(": negative FU count");
            any_units = any_units || units > 0;
        }
        if (!any_units)
            return fail(": cluster with no units");
    }
    if (numClusters() == 1)
        return {};
    if (interconnect == InterconnectKind::Bus) {
        if (numBuses <= 0)
            return fail(": multi-cluster bused machine needs buses");
        return {};
    }
    if (links.empty())
        return fail(": no links");
    for (const LinkDesc &link : links) {
        if (link.a < 0 || link.a >= numClusters() || link.b < 0 ||
            link.b >= numClusters() || link.a == link.b) {
            return fail(": bad link");
        }
    }
    // Links are undirected: every cluster reachable from cluster 0
    // means every pair is connected.
    const HopTree tree = hopTree(0);
    for (ClusterId c = 1; c < numClusters(); ++c) {
        if (tree.depth[c] < 0) {
            return fail(": clusters 0 and " + std::to_string(c) +
                        " are not connected");
        }
    }
    return {};
}

void
MachineDesc::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        cams_fatal(error);
}

} // namespace cams
