/**
 * @file
 * Clustered machine descriptions (the paper's Section 2.1).
 *
 * A machine is a set of clusters, each pairing a register file with a
 * group of function units. Clusters exchange values through explicit
 * copy operations over either shared broadcast buses or dedicated
 * point-to-point links. A copy occupies, for one cycle, one register
 * file read port on the source cluster, one write port on every
 * destination cluster, and one bus (broadcast) or the entire link
 * (point-to-point). Copies need no issue slot or function unit.
 *
 * A cluster's function units are either a general-purpose (GP) pool
 * that executes every opcode, or fully-specialized (FS) pools with
 * dedicated memory / integer / floating-point units.
 */

#ifndef CAMS_MACHINE_MACHINE_HH
#define CAMS_MACHINE_MACHINE_HH

#include <array>
#include <string>
#include <vector>

#include "graph/opcode.hh"

namespace cams
{

/** Index of a cluster within its machine. */
using ClusterId = int;

/** Sentinel for "no cluster". */
constexpr ClusterId invalidCluster = -1;

/**
 * Most clusters a machine may have: 8x the largest machine the paper
 * evaluates. Keeps the per-model routing tables small and lets a set
 * of clusters fit one 64-bit mask.
 */
constexpr int maxClusters = 64;

/** One register file + function unit group. */
struct ClusterDesc
{
    /** Size of the general-purpose pool; 0 on FS clusters. */
    int gpUnits = 0;

    /** FS pools indexed by FuClass (Memory, Integer, Float). */
    std::array<int, numFuClasses> fsUnits{};

    /** Register-file read ports feeding the interconnect. */
    int readPorts = 1;

    /** Interconnect write ports into the register file. */
    int writePorts = 1;

    /** True when this cluster executes opcodes on the GP pool. */
    bool usesGpPool() const { return gpUnits > 0; }

    /** Units available for the given class on this cluster. */
    int fuCount(FuClass cls) const;

    /** Total function units (the cluster's issue width). */
    int width() const;
};

/** How clusters communicate. */
enum class InterconnectKind
{
    Bus,          ///< shared broadcast buses
    PointToPoint, ///< dedicated links between cluster pairs
};

/** One bidirectional point-to-point link. */
struct LinkDesc
{
    ClusterId a = invalidCluster;
    ClusterId b = invalidCluster;
};

/**
 * Breadth-first shortest-path tree from one source cluster, visiting
 * neighbors in ascending id -- the deterministic tree every copy route
 * follows.
 */
struct HopTree
{
    ClusterId source = invalidCluster;

    /** BFS parent per cluster; invalidCluster at the source and at
     *  clusters the source cannot reach. */
    std::vector<ClusterId> parent;

    /** Hops from the source per cluster; -1 when unreachable. */
    std::vector<int> depth;

    /** Reachable clusters other than the source, by (depth, id). */
    std::vector<ClusterId> order;
};

/** A complete clustered machine. */
struct MachineDesc
{
    std::string name;
    std::vector<ClusterDesc> clusters;
    InterconnectKind interconnect = InterconnectKind::Bus;

    /** Number of shared buses (Bus interconnect only). */
    int numBuses = 0;

    /** Point-to-point links (PointToPoint interconnect only). */
    std::vector<LinkDesc> links;

    /** Number of clusters. */
    int numClusters() const
    {
        return static_cast<int>(clusters.size());
    }

    /** True when copies broadcast to any set of destinations. */
    bool broadcast() const
    {
        return interconnect == InterconnectKind::Bus;
    }

    /** Cluster accessor (checked). */
    const ClusterDesc &cluster(ClusterId id) const;

    /** Units available for a class on a cluster. */
    int fuCount(ClusterId id, FuClass cls) const;

    /** Sum of all cluster widths: the machine's issue width. */
    int totalWidth() const;

    /** True when the opcode can execute somewhere on this machine. */
    bool canExecute(Opcode op) const;

    /** Link index connecting two clusters, or -1. */
    int linkBetween(ClusterId a, ClusterId b) const;

    /** Neighbor clusters directly reachable from the given cluster. */
    std::vector<ClusterId> neighbors(ClusterId id) const;

    /**
     * Shortest copy route between two clusters (BFS over links); for a
     * bused machine this is always {src, dst}. Empty when unreachable.
     * The route includes both endpoints.
     */
    std::vector<ClusterId> route(ClusterId src, ClusterId dst) const;

    /** The BFS tree of routes from a source cluster over the links. */
    HopTree hopTree(ClusterId src) const;

    /**
     * The equally wide unified machine (the paper's baseline): one
     * cluster holding every function unit, no interconnect.
     */
    MachineDesc unifiedEquivalent() const;

    /**
     * Why the description is impossible, or empty when it is sound:
     * no clusters, more than maxClusters, negative counts, a cluster
     * without units, a multi-cluster machine without buses or links,
     * a link to an undeclared cluster, or clusters the links leave
     * disconnected. Decoders of outside input reject on it.
     */
    std::string validationError() const;

    /** validationError() as a fatal error, for internal callers. */
    void validate() const;
};

} // namespace cams

#endif // CAMS_MACHINE_MACHINE_HH
