/**
 * @file
 * The modulo reservation table (MRT) and the resource model that
 * drives it.
 *
 * Following the paper's Section 2.2, each cluster owns an MRT of II
 * rows over its local resources (function-unit pools and bus/link
 * ports) while global resources -- the broadcast buses, or each
 * point-to-point link -- appear in every cluster's table. We realize
 * this as a single table over a flat set of resource pools; a pool is
 * either local to a cluster or global, and a reservation claims one
 * slot in each requested pool within the same row.
 *
 * The same table serves both phases:
 *  - cluster assignment reserves "some row" (first fit), modeling the
 *    paper's slot packing without committing to a cycle;
 *  - modulo scheduling reserves at row = cycle mod II.
 *
 * Occupancy is tracked twice: exact per-row slot counts, plus one
 * free-row bitmask per pool (bit r set while row r still has a free
 * slot) packed into uint64_t words. canReserveAt is one bit test per
 * requested pool, and the first-fit and window scans AND the pool
 * masks a word at a time; only a request that names one pool twice
 * falls back to the exact counts. freeInRow reads the counts
 * directly, which is what tests check the word scans against.
 */

#ifndef CAMS_MRT_MRT_HH
#define CAMS_MRT_MRT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/opcode.hh"
#include "machine/machine.hh"

namespace cams
{

/** Index of a resource pool within a ResourceModel. */
using PoolId = int;

/** Sentinel for "no pool". */
constexpr PoolId invalidPool = -1;

/** Flattens a machine description into per-cycle resource pools. */
class ResourceModel
{
  public:
    /** Builds the pool layout for a machine. */
    explicit ResourceModel(const MachineDesc &machine);

    /** Number of pools. */
    int numPools() const { return static_cast<int>(capacity_.size()); }

    /** Units of a pool available in each cycle. */
    int capacity(PoolId pool) const;

    /**
     * Function-unit pool executing the given class on a cluster;
     * invalidPool when the cluster has no such units (or for
     * FuClass::None, since copies use no function unit).
     */
    PoolId fuPool(ClusterId cluster, FuClass cls) const;

    /** Interconnect read-port pool of a cluster (invalidPool if 0). */
    PoolId readPool(ClusterId cluster) const;

    /** Interconnect write-port pool of a cluster (invalidPool if 0). */
    PoolId writePool(ClusterId cluster) const;

    /** The shared bus pool; invalidPool on point-to-point machines. */
    PoolId busPool() const { return busPool_; }

    /** Pool of one point-to-point link. */
    PoolId linkPool(int link) const;

    /**
     * The BFS route tree from a source cluster (point-to-point
     * machines only): built once per model, so copy routing never
     * re-runs the search.
     */
    const HopTree &hopTree(ClusterId src) const;

    /** Human-readable pool name for diagnostics. */
    std::string poolName(PoolId pool) const;

    /** The machine this model was derived from. */
    const MachineDesc &machine() const { return machine_; }

    /**
     * The one-pool request of an operation of the class on a cluster,
     * as a view into the model; empty when the cluster has no such
     * units.
     */
    std::span<const PoolId> fuRequest(ClusterId cluster, FuClass cls) const;

    /** The cluster's distinct unit pools and ports, ascending. */
    std::span<const PoolId> localPools(ClusterId cluster) const;

    /**
     * The resource pools one operation instance needs (all in the same
     * cycle), written into a caller buffer. For a non-copy opcode: its
     * function-unit pool. Fatal when the cluster cannot execute the
     * opcode.
     */
    void opRequestInto(ClusterId cluster, Opcode op,
                       std::vector<PoolId> &out) const;

    /**
     * The pools a copy transfer needs, written into a caller buffer
     * (hot paths reuse its capacity instead of allocating per copy):
     * one read port on the source, the bus (or the link), and one
     * write port on each destination. On point-to-point machines the
     * destination set must be a single neighbor of the source.
     */
    void copyRequestInto(ClusterId src, std::span<const ClusterId> dsts,
                         std::vector<PoolId> &out) const;

  private:
    MachineDesc machine_;
    std::vector<int> capacity_;
    // Per cluster: pool per FuClass (GP clusters alias all three).
    std::vector<std::array<PoolId, numFuClasses>> fuPools_;
    std::vector<PoolId> readPools_;
    std::vector<PoolId> writePools_;
    PoolId busPool_ = invalidPool;
    std::vector<PoolId> linkPools_;
    /** Point-to-point only: linkOf_[a * clusters + b] = link index
     *  (machine.linkBetween), and one route tree per source. */
    std::vector<int> linkOf_;
    std::vector<HopTree> hopTrees_;
    /** localPools(c) is localPools_[localOff_[c], localOff_[c + 1]). */
    std::vector<PoolId> localPools_;
    std::vector<int> localOff_;
};

/** Modulo reservation table over a ResourceModel at a fixed II. */
class Mrt
{
  public:
    /** An unbound table; reset(model, ii) before first use. */
    Mrt() = default;

    /** Creates an empty table of the given length. */
    Mrt(const ResourceModel &model, int ii);

    /**
     * Rebinds the table to a model and length, clearing every slot.
     * Reuses the occupancy buffers, so escalating II probes avoid
     * reallocation; the cumulative wordScans() counter survives.
     */
    void reset(const ResourceModel &model, int ii);

    /** Clears the table at a new length, keeping the current model. */
    void reset(int ii);

    /** Table length. */
    int ii() const { return ii_; }

    /** Occupancy words examined by queries so far. */
    long wordScans() const { return wordScans_; }

    /** True when every requested pool has a free slot in this row. */
    bool canReserveAt(std::span<const PoolId> pools, int row) const;

    /** First row that can host the request, or -1. */
    int findRow(std::span<const PoolId> pools) const;

    /**
     * First-fit over the cyclic row sequence startRow, startRow +
     * step, ... (step is +1 or -1, rows taken modulo II): returns the
     * number of rows skipped before the first one that can host the
     * request, or -1 when none of the `count` rows fits. This is the
     * schedulers' slot-window scan as one word-level operation.
     */
    int scanRows(std::span<const PoolId> pools, int startRow,
                 int count, int step) const;

    /**
     * Takes one slot of every requested pool in a row (0 <= row < II);
     * the request must fit. Callers keep the row (and can rebuild the
     * request) to free the slots later.
     */
    void occupy(std::span<const PoolId> pools, int row);

    /** Gives back what occupy(pools, row) took. */
    void free(std::span<const PoolId> pools, int row);

    /** Free slots of a pool in one row. */
    int freeInRow(PoolId pool, int row) const;

    /** Free slots of a pool across all rows. */
    int freeTotal(PoolId pool) const;

    /** Used slots of a pool across all rows. */
    int usedTotal(PoolId pool) const;

    /** The resource model the table was built from. */
    const ResourceModel &model() const { return *model_; }

    /**
     * Human-readable occupancy table (one line per pool, one column
     * per row), for diagnostics and traces.
     */
    std::string dump() const;

  private:
    /** The exact admission test over the per-row slot counts. */
    bool fitsExactly(std::span<const PoolId> pools, int row) const;

    /** AND of the requested pools' free-row masks, in maskWord_ or,
     *  for a table longer than 64 rows, in mask_. */
    const uint64_t *combineMasks(std::span<const PoolId> pools) const;

    /** Slots of a pool taken across all rows. */
    int &usedTotalOf(PoolId pool)
    {
        return use_[static_cast<size_t>(model_->numPools()) * ii_ + pool];
    }
    int usedTotalOf(PoolId pool) const
    {
        return use_[static_cast<size_t>(model_->numPools()) * ii_ + pool];
    }

    const ResourceModel *model_ = nullptr;
    int ii_ = 0;
    /** Words per free-row bitmask: ceil(ii / 64). */
    int words_ = 0;
    /** use_[pool * ii_ + row] = slots taken; then, per pool, the slots
     *  taken across all rows (usedTotalOf). */
    std::vector<int> use_;
    /** freeRows_[pool * words_ + w]: bit r set = row 64w+r has room. */
    std::vector<uint64_t> freeRows_;
    /** Scratch for combineMasks (the MRT is single-threaded): one
     *  word, so a table of at most 64 rows needs no buffer. */
    mutable uint64_t maskWord_ = 0;
    mutable std::vector<uint64_t> mask_;
    mutable long wordScans_ = 0;
};

} // namespace cams

#endif // CAMS_MRT_MRT_HH
