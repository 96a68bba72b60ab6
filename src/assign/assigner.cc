#include "assign/assigner.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>

#include "assign/router.hh"
#include "assign/selector.hh"
#include "pipeline/context.hh"
#include "support/logging.hh"
#include "support/rankqueue.hh"
#include "support/time.hh"

namespace cams
{

/**
 * Mutable assignment state: node placements, the shared MRT, and one
 * copy record per produced value that currently crosses clusters. All
 * mutations run through transactions so a tentative placement can be
 * rolled back exactly. A LoopContext keeps one state, so restarts and
 * II probes reuse every buffer: records, undo logs, request buffers
 * and work lists keep their capacity, and placing and rolling back
 * allocate nothing once they are warm. Per-cluster tallies of the
 * §4.2 predictions follow every placement and copy change, so scoring
 * a candidate cluster costs no scan of the graph; so do the clusters
 * each value's consumers sit on, which re-planning its copies reads.
 */
class AssignState
{
  public:
    /**
     * Copy bookkeeping for one value (indexed by its producer). Only
     * rows are kept: a copy's pools are rebuilt from the source and
     * the destination mask whenever the record is released or
     * restored. The rows sit in a CommSlots slot.
     */
    struct ValueComm
    {
        /** Cluster the value is produced on. */
        ClusterId src = invalidCluster;

        /** MRT rows in the slot, one per copy operation (the one
         *  broadcast, or one per hop): the record's copy count. */
        int numRows = 0;

        /**
         * The clusters the copies deliver to, which syncComm compares
         * with the consumers' clusters. Bused: the broadcast's
         * destinations. Point-to-point: each hop's target; hops run in
         * the order of src's hop tree, each from the target's parent.
         */
        uint64_t dstMask = 0;
    };

    /**
     * The rows of copy records, a fixed-capacity slot per record. One
     * value never needs more copies than the machine has clusters, so
     * slots of that capacity hold any record and no record owns a
     * heap buffer of its own.
     */
    struct CommSlots
    {
        int capacity = 0;
        std::vector<int> rows;

        void resize(size_t slots) { rows.resize(slots * capacity); }

        int *rowsAt(size_t slot) { return rows.data() + slot * capacity; }
        const int *
        rowsAt(size_t slot) const
        {
            return rows.data() + slot * capacity;
        }

        /** Copies a record's rows between slots. */
        void
        copy(const ValueComm &comm, const CommSlots &from,
             size_t fromSlot, size_t toSlot)
        {
            std::copy_n(from.rowsAt(fromSlot), comm.numRows,
                        rowsAt(toSlot));
        }
    };

    /**
     * Undo log of one placement. Entries and their slots outlive the
     * transaction, so logging copies a record into a warm slot and
     * allocates nothing.
     */
    struct Txn
    {
        struct Entry
        {
            NodeId value = invalidNode;
            /** The value had a record before; `previous` holds it,
             *  with its rows in the entry's slot. */
            bool had = false;
            ValueComm previous;
        };

        NodeId node = invalidNode;
        bool fuSet = false;
        /** The first `used` entries are this transaction's, in order. */
        std::vector<Entry> entries;
        size_t used = 0;
        /** Slot i belongs to entries[i]. */
        CommSlots slots;

        void
        reset(NodeId placed)
        {
            node = placed;
            fuSet = false;
            used = 0;
        }

        bool
        logs(NodeId value) const
        {
            for (size_t i = 0; i < used; ++i) {
                if (entries[i].value == value)
                    return true;
            }
            return false;
        }

        Entry &
        push(NodeId value)
        {
            if (used == entries.size()) {
                entries.emplace_back();
                slots.resize(entries.size());
            }
            Entry &entry = entries[used++];
            entry.value = value;
            return entry;
        }
    };

    enum class FailKind
    {
        None,
        Fu,   ///< no function-unit slot for the node itself
        Comm, ///< a required copy could not be reserved
    };

    struct TryOutcome
    {
        bool ok = false;
        FailKind kind = FailKind::None;
        /** Producer whose communication failed (Comm failures). */
        NodeId commValue = invalidNode;
    };

    /**
     * Rebinds the state to one attempt and clears it: nothing placed,
     * no copies, every tally zero. The buffers keep their capacity.
     *
     * @param timeRoute read the clock around each placement's routing
     *        work (phase tracing only; otherwise routeMicros() stays 0).
     */
    void
    begin(const Dfg &graph, const ResourceModel &model, Mrt &mrt,
          FaultInjector *faults, bool timeRoute)
    {
        graph_ = &graph;
        model_ = &model;
        machine_ = &model.machine();
        clusters_ = machine_->numClusters();
        faults_ = faults;
        timeRoute_ = timeRoute;
        routeMicros_ = 0;
        mrt_ = &mrt;
        copyOps_ = 0;
        const int nodes = graph.numNodes();
        clusterOf_.assign(nodes, invalidCluster);
        fuRow_.assign(nodes, -1);
        comm_.assign(nodes, {});
        commSlots_.capacity = clusters_;
        commSlots_.resize(nodes);
        hasComm_.assign(nodes, 0);
        // Nothing is placed yet: every distinct consumer is unplaced.
        nodeTally_.assign(nodes, {});
        size_t logged = 1; // values one placement may log: it and its preds
        for (NodeId v = 0; v < nodes; ++v) {
            for (NodeId succ : graph.successors(v)) {
                if (succ != v)
                    ++nodeTally_[v].unplacedSuccs;
            }
            logged = std::max(logged, 1 + graph.predecessors(v).size());
        }
        for (Txn *txn : {&commitLog_, &shrinkLog_, &tentative}) {
            txn->reset(invalidNode);
            if (txn->entries.size() < logged)
                txn->entries.resize(logged);
            txn->slots.capacity = clusters_;
            txn->slots.resize(txn->entries.size());
        }
        clusterTally_.assign(clusters_, {});
        consumersOn_.assign(static_cast<size_t>(nodes) * clusters_, 0);
    }

    ClusterId clusterOf(NodeId node) const { return clusterOf_[node]; }

    /** Wall time spent routing copies so far, microseconds (0 when
     *  constructed without timeRoute). */
    int64_t routeMicros() const { return routeMicros_; }

    bool assigned(NodeId node) const
    {
        return clusterOf_[node] != invalidCluster;
    }

    const Mrt &mrt() const { return *mrt_; }

    /** Total copy operations currently reserved. */
    int totalCopies() const { return copyOps_; }

    /** RC(N): required copies generated by the node's value so far. */
    int
    requiredCopiesOf(NodeId value) const
    {
        return hasComm_[value] ? comm_[value].numRows : 0;
    }

    /**
     * Attempts to place the node; commits on success, rolls back on
     * failure. When @p txn is non-null a successful placement is
     * recorded there so the caller can roll it back (tentative mode).
     */
    TryOutcome
    tryAssign(NodeId node, ClusterId cluster, Txn *txn = nullptr)
    {
        cams_check(!assigned(node), "node ", node, " already assigned");
        Txn &log = txn ? *txn : commitLog_;
        log.reset(node);

        TryOutcome outcome;

        const FuClass cls = opcodeFuClass(graph_->node(node).op);
        if (model_->fuPool(cluster, cls) == invalidPool) {
            outcome.kind = FailKind::Fu;
            return outcome;
        }
        const std::span<const PoolId> req = model_->fuRequest(cluster, cls);
        const int row = mrt_->findRow(req);
        if (row < 0) {
            outcome.kind = FailKind::Fu;
            return outcome;
        }
        mrt_->occupy(req, row);
        fuRow_[node] = row;
        log.fuSet = true;
        place(node, cluster);

        // Communication of the node's own value, then of each newly
        // crossing predecessor value. This block is the routing phase
        // of a placement. Like an inactive TraceScope, it reads the
        // clock only under phase tracing.
        const int64_t route_start = timeRoute_ ? nowMicros() : 0;
        values_.clear();
        values_.push_back(node);
        for (NodeId pred : graph_->predecessors(node)) {
            if (pred != node && assigned(pred))
                values_.push_back(pred);
        }
        for (NodeId value : values_) {
            if (!syncComm(value, log)) {
                outcome.kind = FailKind::Comm;
                outcome.commValue = value;
                rollback(log);
                break;
            }
        }
        if (timeRoute_)
            routeMicros_ += nowMicros() - route_start;
        outcome.ok = outcome.kind == FailKind::None;
        return outcome;
    }

    /** Rolls back a successful tentative tryAssign. */
    void
    rollback(Txn &txn)
    {
        // Release the new records of every touched value, then restore
        // the old ones slot for slot.
        for (size_t i = txn.used; i-- > 0;)
            dropComm(txn.entries[i].value);
        for (size_t i = 0; i < txn.used; ++i) {
            const Txn::Entry &entry = txn.entries[i];
            if (!entry.had)
                continue;
            restoreCopies(entry.previous, txn.slots, i);
            comm_[entry.value] = entry.previous;
            commSlots_.copy(entry.previous, txn.slots, i, entry.value);
            hasComm_[entry.value] = 1;
            copyOps_ += entry.previous.numRows;
            refreshPcr(entry.value);
        }
        txn.used = 0;
        if (txn.fuSet) {
            releaseFu(txn.node);
            txn.fuSet = false;
        }
    }

    /** Definitively removes a node (eviction path). */
    void
    unassign(NodeId node)
    {
        cams_check(assigned(node), "unassigning unplaced node ", node);
        // The node's own value no longer has a source.
        dropComm(node);
        releaseFu(node);

        // Predecessor values may stop crossing clusters: shrink their
        // communication. Shrinking can always be re-reserved because
        // the released slots strictly cover the new need.
        for (NodeId pred : graph_->predecessors(node)) {
            if (pred == node || !assigned(pred))
                continue;
            shrinkLog_.reset(invalidNode);
            const bool ok = syncComm(pred, shrinkLog_);
            cams_check(ok, "shrinking communication of value ", pred,
                       " failed");
        }
    }

    /**
     * PCR_c <= MRC_c test of Figure 10 line 6 for one cluster, using
     * the §4.2 definitions of predicted copy requests (a running
     * tally, see refreshPcr) and maximum reservable copies. Room is
     * never negative, so MRC is only computed when PCR_c > 0.
     */
    bool
    pcrWithinMrc(ClusterId cluster) const
    {
        const int pcr = clusterTally_[cluster].pcr;
        return pcr == 0 ||
               pcr <= reservableThrough(cluster, model_->readPool(cluster));
    }

    /**
     * Symmetric prediction on the consumer side (an extension in the
     * spirit of §4.2): every distinct unassigned producer feeding a
     * node on the cluster may later need to copy its value in,
     * costing a write port and a bus/link cycle.
     */
    bool
    incomingWithinRoom(ClusterId cluster) const
    {
        const int incoming = clusterTally_[cluster].incoming;
        return incoming == 0 ||
               incoming <=
                   reservableThrough(cluster, model_->writePool(cluster));
    }

    /** Copy slots still available through the given port pool. */
    int
    reservableThrough(ClusterId cluster, PoolId port) const
    {
        if (port == invalidPool)
            return 0;
        int room = 0;
        for (int row = 0; row < mrt_->ii(); ++row) {
            const int port_free = mrt_->freeInRow(port, row);
            int channel_free = 0;
            if (machine_->broadcast()) {
                channel_free = mrt_->freeInRow(model_->busPool(), row);
            } else {
                for (size_t link = 0; link < machine_->links.size();
                     ++link) {
                    if (machine_->links[link].a == cluster ||
                        machine_->links[link].b == cluster) {
                        channel_free +=
                            mrt_->freeInRow(model_->linkPool(link), row);
                    }
                }
            }
            room += std::min(port_free, channel_free);
        }
        return room;
    }

    /** Free slots across the cluster's local pools. */
    int
    freeClusterResources(ClusterId cluster) const
    {
        int free = 0;
        for (PoolId pool : model_->localPools(cluster))
            free += mrt_->freeTotal(pool);
        return free;
    }

    /** Bare-operation fit ignoring copies (Figure 11 line 3). */
    bool
    bareOpFits(NodeId node, ClusterId cluster) const
    {
        const PoolId pool =
            model_->fuPool(cluster, opcodeFuClass(graph_->node(node).op));
        return pool != invalidPool && mrt_->freeTotal(pool) > 0;
    }

    /** Assigned neighbors sitting on other clusters (Fig. 11 line 4). */
    int
    conflictingNeighbors(NodeId node, ClusterId cluster) const
    {
        int conflicts = 0;
        auto count = [&](std::span<const NodeId> neighbors) {
            for (NodeId other : neighbors) {
                if (other != node && assigned(other) &&
                    clusterOf_[other] != cluster) {
                    ++conflicts;
                }
            }
        };
        count(graph_->predecessors(node));
        count(graph_->successors(node));
        return conflicts;
    }

    /** runAttempt's work lists, kept here for the same reuse. */
    std::vector<NodeId> localOrder;
    std::vector<int> rank;
    /** The RankQueue's flags. */
    std::vector<char> pendingRank;
    std::vector<char> tried;
    std::vector<long> est;
    std::vector<ClusterChoice> choices;
    /** One undo log serves every tentative placement of an attempt. */
    Txn tentative;
    std::vector<NodeId> victims;

  private:
    /**
     * Re-plans the communication of one value from current placements.
     * Records the previous state in the transaction; on failure the
     * value is left without a record and every new slot is released
     * (the caller's rollback restores the previous state).
     */
    bool
    syncComm(NodeId value, Txn &txn)
    {
        cams_assert(assigned(value), "syncComm on unassigned value");
        const ClusterId src = clusterOf_[value];

        // The clusters of the value's remote consumers, read from the
        // running mask: the same set a scan of its placed successors
        // would collect, so an unchanged record costs O(1).
        const uint64_t desired =
            nodeTally_[value].consumerClusters & ~(uint64_t{1} << src);
        // Nothing to do when the record already serves that set, or
        // when the set is empty and there is no record (a record's
        // mask is never empty). Bused: the same destination set.
        // Point-to-point: the hop targets, relays included, equal the
        // destinations -- so a value routed through a relay is
        // re-planned on every sync.
        const uint64_t recorded = hasComm_[value] ? comm_[value].dstMask : 0;
        if (desired == recorded)
            return true;

        // Log the previous record once per value per transaction:
        // release its slots and copy it into the log entry.
        if (!txn.logs(value)) {
            Txn::Entry &entry = txn.push(value);
            entry.had = hasComm_[value] != 0;
            if (entry.had) {
                dropComm(value);
                entry.previous = comm_[value];
                txn.slots.copy(comm_[value], commSlots_, value,
                               txn.used - 1);
            }
        }
        dropComm(value); // a record this transaction made earlier
        if (desired == 0)
            return true;

        // Injected bus/link exhaustion: behave exactly as if every
        // reservation below had come back empty.
        if (faults_ && faults_->trip(FaultSite::RouterBusExhaustion))
            return false;

        desired_.clear(); // ascending
        for (uint64_t rest = desired; rest != 0; rest &= rest - 1)
            desired_.push_back(std::countr_zero(rest));
        ValueComm &fresh = comm_[value];
        fresh = {src, 0, 0};
        int *fresh_rows = commSlots_.rowsAt(value);
        auto reserveCopy = [&](ClusterId from,
                               std::span<const ClusterId> dsts) {
            model_->copyRequestInto(from, dsts, request_);
            const int row = mrt_->findRow(request_);
            if (row >= 0) {
                mrt_->occupy(request_, row);
                fresh_rows[fresh.numRows++] = row;
            }
            return row >= 0;
        };
        if (machine_->broadcast()) {
            if (!reserveCopy(src, desired_))
                return false;
            fresh.dstMask = desired;
        } else {
            planHops(model_->hopTree(src), desired_, hops_);
            for (const Hop &hop : hops_) {
                if (!reserveCopy(hop.from, {&hop.to, 1})) {
                    freeCopies(fresh, commSlots_, value);
                    return false;
                }
                fresh.dstMask |= uint64_t{1} << hop.to;
            }
        }
        hasComm_[value] = 1;
        copyOps_ += fresh.numRows;
        refreshPcr(value);
        return true;
    }

    /**
     * Calls fn(pools, row) for each copy of a record whose rows sit in
     * slots[slot], rebuilding its pools into the shared request buffer
     * from the destination mask: the broadcast's ascending clusters,
     * or each hop of the chain in tree order. The copies reserved so
     * far are the first numRows of them.
     */
    template <typename Fn>
    void
    forEachCopy(const ValueComm &comm, const CommSlots &slots, size_t slot,
                Fn fn)
    {
        const int *rows = slots.rowsAt(slot);
        if (machine_->broadcast()) {
            if (comm.numRows == 0)
                return;
            size_t count = 0;
            for (uint64_t rest = comm.dstMask; rest != 0; rest &= rest - 1)
                dsts_[count++] = std::countr_zero(rest);
            model_->copyRequestInto(comm.src, {dsts_.data(), count},
                                    request_);
            fn(request_, rows[0]);
            return;
        }
        const HopTree &tree = model_->hopTree(comm.src);
        int i = 0;
        for (ClusterId to : tree.order) {
            if (!((comm.dstMask >> to) & 1))
                continue;
            model_->copyRequestInto(tree.parent[to], {&to, 1}, request_);
            fn(request_, rows[i++]);
        }
    }

    /** Returns a record's slots to the MRT. */
    void
    freeCopies(const ValueComm &comm, const CommSlots &slots, size_t slot)
    {
        forEachCopy(comm, slots, slot,
                    [&](std::span<const PoolId> pools, int row) {
                        mrt_->free(pools, row);
                    });
    }

    /** Takes a released record's exact slots again. */
    void
    restoreCopies(const ValueComm &comm, const CommSlots &slots,
                  size_t slot)
    {
        forEachCopy(comm, slots, slot,
                    [&](std::span<const PoolId> pools, int row) {
                        mrt_->occupy(pools, row);
                    });
    }

    /** Releases the value's record, if it has one, and drops it. */
    void
    dropComm(NodeId value)
    {
        if (!hasComm_[value])
            return;
        freeCopies(comm_[value], commSlots_, value);
        copyOps_ -= comm_[value].numRows;
        hasComm_[value] = 0;
        refreshPcr(value);
    }

    /** Releases the node's function-unit slot and unplaces it. */
    void
    releaseFu(NodeId node)
    {
        const FuClass cls = opcodeFuClass(graph_->node(node).op);
        mrt_->free(model_->fuRequest(clusterOf_[node], cls), fuRow_[node]);
        fuRow_[node] = -1;
        unplace(node);
    }

    /**
     * Sets clusterOf_[node] and keeps the scoring tallies exact: the
     * node's own PCR term joins its cluster, it stops counting as an
     * unplaced producer, and each predecessor loses an unplaced
     * consumer and gains one on the cluster. O(deg).
     */
    void
    place(NodeId node, ClusterId cluster)
    {
        clusterOf_[node] = cluster;
        refreshPcr(node);
        for (uint64_t rest = nodeTally_[node].consumerClusters; rest != 0;
             rest &= rest - 1) {
            --clusterTally_[std::countr_zero(rest)].incoming;
        }
        for (NodeId pred : graph_->predecessors(node)) {
            if (pred == node)
                continue;
            NodeTally &tally = nodeTally_[pred];
            --tally.unplacedSuccs;
            refreshPcr(pred);
            if (consumersOn_[static_cast<size_t>(pred) * clusters_ +
                             cluster]++ == 0) {
                tally.consumerClusters |= uint64_t{1} << cluster;
                if (!assigned(pred))
                    ++clusterTally_[cluster].incoming;
            }
        }
    }

    /** Inverse of place(): the only other writer of clusterOf_. */
    void
    unplace(NodeId node)
    {
        const ClusterId cluster = clusterOf_[node];
        clusterTally_[cluster].pcr -= nodeTally_[node].pcrTerm;
        nodeTally_[node].pcrTerm = 0;
        clusterOf_[node] = invalidCluster;
        for (uint64_t rest = nodeTally_[node].consumerClusters; rest != 0;
             rest &= rest - 1) {
            ++clusterTally_[std::countr_zero(rest)].incoming;
        }
        for (NodeId pred : graph_->predecessors(node)) {
            if (pred == node)
                continue;
            NodeTally &tally = nodeTally_[pred];
            ++tally.unplacedSuccs;
            refreshPcr(pred);
            if (--consumersOn_[static_cast<size_t>(pred) * clusters_ +
                               cluster] == 0) {
                tally.consumerClusters &= ~(uint64_t{1} << cluster);
                if (!assigned(pred))
                    --clusterTally_[cluster].incoming;
            }
        }
    }

    /**
     * Recomputes a placed value's §4.2 PCR term, min(UB(RC), its
     * unplaced distinct consumers), and moves the difference into its
     * cluster's tally. Called whenever the placement, the copy count
     * or the unplaced-consumer count of the value changes.
     */
    void
    refreshPcr(NodeId value)
    {
        const ClusterId cluster = clusterOf_[value];
        if (cluster == invalidCluster)
            return;
        const int rc = requiredCopiesOf(value);
        const int upper_bound = machine_->broadcast()
                                    ? std::max(0, 1 - rc)
                                    : std::max(0, clusters_ - rc - 1);
        NodeTally &tally = nodeTally_[value];
        const int term = std::min(upper_bound, tally.unplacedSuccs);
        clusterTally_[cluster].pcr += term - tally.pcrTerm;
        tally.pcrTerm = term;
    }

    struct NodeTally
    {
        /** Distinct consumers other than the node itself, unplaced. */
        int unplacedSuccs = 0;
        /** The node's term in its cluster's PCR (0 while unplaced). */
        int pcrTerm = 0;
        /** Bit c: some placed consumer sits on c (consumersOn_ > 0). */
        uint64_t consumerClusters = 0;
    };

    struct ClusterTally
    {
        /** PCR_c: the placed values' PCR terms, summed. */
        int pcr = 0;
        /** Unplaced producers with at least one consumer placed here. */
        int incoming = 0;
    };

    const Dfg *graph_ = nullptr;
    const ResourceModel *model_ = nullptr;
    const MachineDesc *machine_ = nullptr;
    int clusters_ = 0;
    FaultInjector *faults_ = nullptr;
    bool timeRoute_ = false;
    int64_t routeMicros_ = 0;
    Mrt *mrt_ = nullptr;
    std::vector<ClusterId> clusterOf_;
    /** MRT row of each placed node's function-unit slot. */
    std::vector<int> fuRow_;
    /** Copy record per producer, live while hasComm_ is set; slot v
     *  of commSlots_ holds value v's rows. */
    std::vector<ValueComm> comm_;
    CommSlots commSlots_;
    std::vector<char> hasComm_;
    /** Running copy-op count over the live records. */
    int copyOps_ = 0;
    /** Undo logs of committed placements and of eviction shrinks. */
    Txn commitLog_;
    Txn shrinkLog_;
    /** Reusable buffers for tryAssign / syncComm. */
    std::vector<NodeId> values_;
    std::vector<ClusterId> desired_;
    std::vector<Hop> hops_;
    std::vector<PoolId> request_;
    /** forEachCopy's broadcast destinations, a prefix per call: a
     *  member, so the hot release and restore paths zero nothing. */
    std::array<ClusterId, maxClusters> dsts_{};
    /** Scoring tallies maintained by place/unplace/refreshPcr. */
    std::vector<NodeTally> nodeTally_;
    std::vector<ClusterTally> clusterTally_;
    /** [producer * clusters + c]: its distinct consumers placed on c. */
    std::vector<int> consumersOn_;
};

void
AssignStateDeleter::operator()(AssignState *state) const
{
    delete state;
}

ClusterAssigner::ClusterAssigner(const ResourceModel &model,
                                 AssignOptions options)
    : model_(model), options_(options)
{
}

AssignResult
ClusterAssigner::run(const Dfg &graph, int ii, LoopContext *ctx) const
{
    std::optional<LoopContext> local;
    if (!ctx)
        ctx = &local.emplace(graph);
    const int restarts =
        options_.iterative ? std::max(1, options_.restartsPerIi) : 1;

    // The context's scratch table survives restarts and II probes.
    Mrt &mrt = ctx->scratchMrt(model_, ii);
    const long scan_base = mrt.wordScans();

    AssignResult result;
    int evictions = 0;
    int invariant_failures = 0;
    double order_ms = 0.0;
    double route_ms = 0.0;
    for (int rotation = 0; rotation < restarts; ++rotation) {
        try {
            result = runAttempt(graph, ii, rotation, mrt, *ctx);
        } catch (const InternalError &err) {
            // The attempt's state is corrupt; abandon it wholesale and
            // let the next rotation start from scratch. Nothing leaks:
            // the next attempt resets the state and the table.
            ++invariant_failures;
            result = AssignResult{};
            result.failure = FailureKind::InternalInvariant;
            result.detail = err.what();
        }
        // Evictions and phase times accumulate over restarts so the
        // caller sees the full cost of this II, not just the last
        // attempt's share.
        evictions += result.evictions;
        result.evictions = evictions;
        order_ms += result.orderMillis;
        result.orderMillis = order_ms;
        route_ms += result.routeMillis;
        result.routeMillis = route_ms;
        result.invariantFailures = invariant_failures;
        result.wordScans = mrt.wordScans() - scan_base;
        if (result.success)
            return result;
    }
    return result;
}

AssignResult
ClusterAssigner::runAttempt(const Dfg &graph, int ii, int rotation,
                            Mrt &mrt, LoopContext &ctx) const
{
    AssignResult result;
    const MachineDesc &machine = model_.machine();
    ctx.checkAssignable(machine);

    mrt.reset(ii);
    auto &slot = ctx.assignState();
    if (!slot)
        slot.reset(new AssignState);
    AssignState &state = *slot;
    state.begin(graph, model_, mrt, options_.faults,
                options_.trace.active(TraceLevel::Phase));
    const Stopwatch order_watch;
    const SccInfo &sccs = ctx.sccs();
    const TimeAnalysis &timing = ctx.timing(ii);
    std::vector<NodeId> &local_order = state.localOrder;
    const std::vector<NodeId> *order_ptr = &local_order;
    if (options_.policy == AssignPolicy::AcyclicBug) {
        // BUG processes operations in acyclic dependence order.
        local_order.resize(graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            local_order[v] = v;
        std::stable_sort(local_order.begin(), local_order.end(),
                         [&](NodeId a, NodeId b) {
                             return timing.asap[a] < timing.asap[b];
                         });
    } else if (options_.useSwingOrder) {
        order_ptr = &ctx.swingOrder(ii);
    } else {
        // Ablation: plain id order.
        local_order.resize(graph.numNodes());
        for (NodeId v = 0; v < graph.numNodes(); ++v)
            local_order[v] = v;
    }
    const std::vector<NodeId> &order = *order_ptr;

    std::vector<int> &rank = state.rank;
    rank.assign(graph.numNodes(), 0);
    for (size_t i = 0; i < order.size(); ++i)
        rank[order[i]] = static_cast<int>(i);
    result.orderMillis = order_watch.elapsedMs();
    auto finishAttempt = [&](AssignResult &r) {
        r.routeMillis =
            static_cast<double>(state.routeMicros()) / 1000.0;
    };

    // Decision tracing: instants carry the job tag as an argument
    // (scope names are tag-prefixed; instants keep names stable so
    // trace consumers can filter on them).
    const TraceConfig &trace = options_.trace;
    const bool decisions = trace.active(TraceLevel::Decision);
    auto traceInstant = [&](const char *name, TraceArgs args) {
        if (!trace.tag.empty())
            args.emplace_back("job", trace.tag);
        args.emplace_back("ii", std::to_string(ii));
        trace.sink->instant(name, "assign", std::move(args));
    };
    auto verdictSummary = [](const SelectionExplain &explain) {
        std::string out;
        for (const auto &verdict : explain.verdicts) {
            if (!out.empty())
                out += " ";
            out += 'C' + std::to_string(verdict.cluster) + ":";
            if (verdict.cluster == explain.winner)
                out += "win";
            else if (verdict.survived)
                out += "tie_loss";
            else
                out += verdict.eliminatedBy ? verdict.eliminatedBy
                                            : "survived";
        }
        return out;
    };

    // Unassigned nodes, highest priority (lowest rank) first.
    const int nn = graph.numNodes();
    RankQueue pending(state.pendingRank, nn);

    const int clusters = machine.numClusters();
    std::vector<char> &tried = state.tried;
    tried.assign(static_cast<size_t>(nn) * clusters, 0);
    auto triedAt = [&](NodeId node, ClusterId cluster) -> char & {
        return tried[static_cast<size_t>(node) * clusters + cluster];
    };
    auto markTried = [&](NodeId node, ClusterId cluster) {
        char *flags = &tried[static_cast<size_t>(node) * clusters];
        flags[cluster] = 1;
        if (std::all_of(flags, flags + clusters,
                        [](char b) { return b != 0; })) {
            std::fill(flags, flags + clusters, char(0));
            flags[cluster] = 1;
        }
    };

    const int budget = std::max(
        16, static_cast<int>(evictionBudgetPerNode * graph.numNodes()));
    int evictions = 0;
    int repair_rounds = rotation;

    // BUG's objective: estimated completion time of each placed node.
    std::vector<long> &est = state.est;
    est.assign(graph.numNodes(), 0);
    auto estimateStart = [&](NodeId node, ClusterId cluster,
                             const AssignState &st) {
        long start = timing.asap[node];
        for (const AdjEdge &edge : graph.inEdges(node)) {
            if (edge.node == node || !st.assigned(edge.node))
                continue;
            long ready = est[edge.node] + edge.latency;
            if (st.clusterOf(edge.node) != cluster)
                ready += 1; // copy latency
            start = std::max(start, ready);
        }
        return start;
    };

    std::vector<ClusterChoice> &choices = state.choices;
    choices.reserve(clusters);
    AssignState::Txn &tentative = state.tentative;
    std::vector<NodeId> &victims = state.victims;
    while (!pending.empty()) {
        const NodeId node = order[pending.top()];
        const bool in_scc = sccs.inRecurrence(node);

        choices.clear();
        const int copies_before = state.totalCopies();
        for (ClusterId c = 0; c < machine.numClusters(); ++c) {
            ClusterChoice choice;
            choice.cluster = c;
            choice.previouslyTried = triedAt(node, c) != 0;
            if (in_scc) {
                for (NodeId mate : sccs.component(sccs.componentOf[node])) {
                    if (mate != node && state.assigned(mate) &&
                        state.clusterOf(mate) == c) {
                        choice.sccMate = true;
                        break;
                    }
                }
            }
            const auto outcome = state.tryAssign(node, c, &tentative);
            if (outcome.ok) {
                choice.feasible = true;
                choice.requiredCopies =
                    state.totalCopies() - copies_before;
                choice.freeResources = state.freeClusterResources(c);
                choice.pcrOk = state.pcrWithinMrc(c);
                choice.pcrInOk = state.incomingWithinRoom(c);
                state.rollback(tentative);
            }
            choices.push_back(choice);
        }

        ClusterId best = invalidCluster;
        SelectionExplain explain;
        if (options_.policy == AssignPolicy::AcyclicBug) {
            long best_est = 0;
            for (const ClusterChoice &choice : choices) {
                if (!choice.feasible)
                    continue;
                const long start =
                    estimateStart(node, choice.cluster, state);
                if (best == invalidCluster || start < best_est ||
                    (start == best_est &&
                     choice.freeResources >
                         choices[best].freeResources)) {
                    best = choice.cluster;
                    best_est = start;
                }
            }
        } else {
            best = selectBestCluster(
                choices, options_.fullHeuristic, options_.iterative,
                in_scc, repair_rounds, options_.useSccAffinity,
                options_.usePcrPrediction,
                decisions ? &explain : nullptr);
        }

        // Injected eviction storm: veto the winner so the node takes
        // the Figure 11 forcing path (or fails, when non-iterative).
        if (best != invalidCluster && options_.faults &&
            options_.faults->trip(FaultSite::AssignEvictionStorm)) {
            best = invalidCluster;
        }

        if (best != invalidCluster) {
            const auto outcome = state.tryAssign(node, best);
            cams_check(outcome.ok, "committed assignment failed");
            if (options_.policy == AssignPolicy::AcyclicBug)
                est[node] = estimateStart(node, best, state);
            if (decisions) {
                traceInstant(
                    "assign_decide",
                    {{"node", graph.node(node).name},
                     {"cluster", "C" + std::to_string(best)},
                     {"step", explain.decidingStep
                                  ? explain.decidingStep
                                  : "tie_break"},
                     {"verdicts", verdictSummary(explain)}});
            }
            markTried(node, best);
            pending.erase(rank[node]);
            continue;
        }

        if (!options_.iterative) {
            result.evictions = evictions;
            finishAttempt(result);
            return result; // failure: retry at a larger II
        }

        // Figure 11: force the node somewhere and evict conflicts. Its
        // inputs are read only here; every tentative placement above
        // was rolled back, so the state is the one the cascade saw.
        ++repair_rounds;
        for (ClusterChoice &choice : choices) {
            choice.bareOpFits = state.bareOpFits(node, choice.cluster);
            choice.conflictingNeighbors =
                state.conflictingNeighbors(node, choice.cluster);
        }
        SelectionExplain forcedExplain;
        const ClusterId forced = selectForcedCluster(
            choices, true, decisions ? &forcedExplain : nullptr);
        if (decisions) {
            traceInstant(
                "force_select",
                {{"node", graph.node(node).name},
                 {"cluster", "C" + std::to_string(forced)},
                 {"step", forcedExplain.decidingStep
                              ? forcedExplain.decidingStep
                              : "tie_break"},
                 {"verdicts", verdictSummary(forcedExplain)},
                 {"repair_round", std::to_string(repair_rounds)}});
        }
        bool placed = false;
        while (!placed) {
            const auto outcome = state.tryAssign(node, forced);
            if (outcome.ok) {
                placed = true;
                break;
            }
            // Figure 11's prescription: remove any and all nodes
            // conflicting with the resources needed by N, as well as
            // any conflicting predecessors and successors.
            victims.clear();
            if (outcome.kind == AssignState::FailKind::Fu) {
                // Lowest-priority occupant of the same unit pool
                // (one slot is all the node needs).
                const FuClass cls =
                    opcodeFuClass(graph.node(node).op);
                NodeId victim = invalidNode;
                for (NodeId v = 0; v < graph.numNodes(); ++v) {
                    if (v == node || !state.assigned(v) ||
                        state.clusterOf(v) != forced) {
                        continue;
                    }
                    if (model_.fuPool(forced,
                                      opcodeFuClass(graph.node(v).op)) !=
                        model_.fuPool(forced, cls)) {
                        continue;
                    }
                    if (victim == invalidNode ||
                        rank[v] > rank[victim]) {
                        victim = v;
                    }
                }
                if (victim != invalidNode)
                    victims.push_back(victim);
            } else {
                const NodeId value = outcome.commValue;
                if (value != node) {
                    // A predecessor's copy cannot be placed: evict the
                    // predecessor so it can follow this node.
                    victims.push_back(value);
                } else {
                    // Copies from this node to its consumers fail:
                    // evict every remote consumer so they can regroup
                    // around the forced placement. (The node is not
                    // yet assigned, so remoteness is measured against
                    // the forced cluster.)
                    for (NodeId succ : graph.successors(node)) {
                        if (succ != node && state.assigned(succ) &&
                            state.clusterOf(succ) != forced) {
                            victims.push_back(succ);
                        }
                    }
                }
            }
            if (decisions) {
                std::string evictees;
                for (NodeId victim : victims) {
                    if (!evictees.empty())
                        evictees += " ";
                    evictees += graph.node(victim).name + "#" +
                                std::to_string(victim);
                }
                int tried_count = 0;
                for (ClusterId c = 0; c < clusters; ++c)
                    tried_count += triedAt(node, c) ? 1 : 0;
                traceInstant(
                    "force_place",
                    {{"evictor", graph.node(node).name + "#" +
                                     std::to_string(node)},
                     {"cluster", "C" + std::to_string(forced)},
                     {"fail",
                      outcome.kind == AssignState::FailKind::Fu
                          ? "fu"
                          : "comm"},
                     {"evictees",
                      evictees.empty() ? "<none>" : evictees},
                     {"tried_clusters",
                      std::to_string(tried_count)},
                     {"evictions_total",
                      std::to_string(
                          evictions +
                          static_cast<int>(victims.size()))}});
            }
            if (victims.empty()) {
                // Nothing sensible to evict: the repair dead-ended.
                result.failure = FailureKind::AssignLivelock;
                result.detail = detail::concat(
                    "eviction repair dead-ended at node '",
                    graph.node(node).name, "' (II ", ii, ")");
                if (decisions) {
                    traceInstant("assign_fail",
                                 {{"reason", "livelock_dead_end"},
                                  {"node", graph.node(node).name}});
                }
                result.evictions = evictions;
                finishAttempt(result);
                return result;
            }
            evictions += static_cast<int>(victims.size());
            if (evictions > budget) {
                result.failure = FailureKind::AssignLivelock;
                result.detail = detail::concat(
                    "eviction budget (", budget, ") exhausted at II ",
                    ii);
                if (decisions) {
                    traceInstant(
                        "assign_fail",
                        {{"reason", "eviction_budget"},
                         {"budget", std::to_string(budget)}});
                }
                result.evictions = evictions;
                finishAttempt(result);
                return result;
            }
            for (NodeId victim : victims) {
                state.unassign(victim);
                pending.insert(rank[victim]);
            }
        }
        if (options_.policy == AssignPolicy::AcyclicBug)
            est[node] = estimateStart(node, forced, state);
        markTried(node, forced);
        pending.erase(rank[node]);
    }

    result.clusterOf.resize(graph.numNodes());
    for (NodeId v = 0; v < graph.numNodes(); ++v)
        result.clusterOf[v] = state.clusterOf(v);
    result.loop = spliceCopies(graph, result.clusterOf, model_);
    cams_check(result.loop.numCopies() == state.totalCopies(),
               "spliced ", result.loop.numCopies(), " copies where the "
               "records reserved ", state.totalCopies());
    result.copies = result.loop.numCopies();
    result.evictions = evictions;
    result.success = true;
    finishAttempt(result);
    return result;
}

} // namespace cams
