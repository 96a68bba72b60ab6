/**
 * @file
 * The loop data-flow graph (DFG).
 *
 * Nodes are loop-body operations; edges are data dependences annotated
 * with a latency (cycles the consumer must wait after the producer
 * issues) and a distance (how many loop iterations the dependence
 * spans; 0 for intra-iteration, >= 1 for loop-carried / recurrence
 * edges).
 *
 * The container is append-only: cluster assignment never mutates the
 * input graph, it produces a new, annotated graph with copy operations
 * spliced in (see assign/assignment.hh).
 *
 * Neighbour queries read one flat (CSR) index that seal() builds. Every
 * producer seals the graph it hands out; addNode/addEdge drop the
 * index, and a query on an unsealed graph fails a cams_assert. A const
 * query never builds the index, so one sealed graph may be read from
 * several threads at once.
 */

#ifndef CAMS_GRAPH_DFG_HH
#define CAMS_GRAPH_DFG_HH

#include <span>
#include <string>
#include <vector>

#include "graph/opcode.hh"

namespace cams
{

/** Index of a node within its Dfg. */
using NodeId = int;

/** Index of an edge within its Dfg. */
using EdgeId = int;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = -1;

/** One operation of the loop body. */
struct DfgNode
{
    NodeId id = invalidNode;
    Opcode op = Opcode::IntAlu;
    /** Result latency in cycles (defaults to opcodeLatency(op)). */
    int latency = 1;
    /** Optional human-readable name for traces and DOT output. */
    std::string name;
};

/** One data dependence. */
struct DfgEdge
{
    EdgeId id = -1;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /**
     * Dependence latency: the consumer may issue no earlier than
     * latency cycles after the producer (modulo II * distance).
     */
    int latency = 1;
    /** Iteration distance; 0 = same iteration. */
    int distance = 0;
};

/** One dependence edge as seen from one endpoint: its id, the other
 *  node and the payload the schedulers read. */
struct AdjEdge
{
    EdgeId id;
    NodeId node;
    int latency;
    int distance;
};

/** Append-only data-flow graph with a sealed adjacency index. */
class Dfg
{
  public:
    /** Adds a node; latency < 0 means "use the opcode default". */
    NodeId addNode(Opcode op, int latency = -1, std::string name = "");

    /**
     * Adds a dependence edge.
     * @param latency < 0 means "use the producer's latency".
     */
    EdgeId addEdge(NodeId src, NodeId dst, int latency = -1,
                   int distance = 0);

    /**
     * Reserves room for the given numbers of nodes and edges, so code
     * that knows a graph's size adds them without regrowing.
     */
    void reserve(int nodes, int edges);

    /** Builds the adjacency index the edge and neighbour queries read;
     *  O(V + E log deg). Sealing a sealed graph rebuilds it. */
    void seal();

    /** True from seal() until the next addNode/addEdge. */
    bool sealed() const { return !off_.empty(); }

    /** Number of nodes. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** Number of edges. */
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Node accessor (checked). */
    const DfgNode &node(NodeId id) const;

    /** Edge accessor (checked). */
    const DfgEdge &edge(EdgeId id) const;

    /** Mutable node accessor (checked); used by builders only. */
    DfgNode &node(NodeId id);

    /** Incoming edges of a node (node = source), in edge-id order. */
    std::span<const AdjEdge> inEdges(NodeId id) const
    {
        return row(In, id);
    }

    /** Outgoing edges of a node (node = target), in edge-id order. */
    std::span<const AdjEdge> outEdges(NodeId id) const
    {
        return row(Out, id);
    }

    /** Distinct predecessor node ids, ascending. */
    std::span<const NodeId> predecessors(NodeId id) const
    {
        return neighbours(Pred, id);
    }

    /** Distinct successor node ids, ascending. */
    std::span<const NodeId> successors(NodeId id) const
    {
        return neighbours(Succ, id);
    }

    /** All nodes, in id order. */
    const std::vector<DfgNode> &nodes() const { return nodes_; }

    /** All edges, in id order. */
    const std::vector<DfgEdge> &edges() const { return edges_; }

    /** Sum of node latencies; a safe upper bound for RecMII search. */
    int totalLatency() const;

    /** True when every edge's endpoints are valid and distances >= 0. */
    bool wellFormed(std::string *why = nullptr) const;

    /** Optional loop name used by reports. */
    const std::string &name() const { return name_; }

    /** Sets the loop name. */
    void setName(std::string name) { name_ = std::move(name); }

  private:
    /** The index's relations; each holds numNodes() + 1 offsets. */
    enum Relation
    {
        In,
        Out,
        Pred,
        Succ,
        numRelations
    };

    /** Offsets of a node's row in one relation. An unsealed graph has
     *  no offsets, so the range check refuses every id there too. */
    const int *offsets(Relation relation, NodeId id) const
    {
        const size_t stride = off_.size() / numRelations;
        if (id < 0 || static_cast<size_t>(id) + 1 >= stride) [[unlikely]]
            badRow(id);
        return off_.data() + relation * stride + id;
    }

    std::span<const AdjEdge> row(Relation relation, NodeId id) const
    {
        const int *off = offsets(relation, id);
        return {adj_.data() + off[0], adj_.data() + off[1]};
    }

    std::span<const NodeId> neighbours(Relation relation, NodeId id) const
    {
        const int *off = offsets(relation, id);
        return {nbr_.data() + off[0], nbr_.data() + off[1]};
    }

    /** Fails the assertion that explains why a row query is refused. */
    [[noreturn]] void badRow(NodeId id) const;

    std::vector<DfgNode> nodes_;
    std::vector<DfgEdge> edges_;
    /** numNodes() + 1 row offsets per relation, relation after
     *  relation; empty while unsealed. */
    std::vector<int> off_;
    /** Edge records: every node's in-row, then every node's out-row. */
    std::vector<AdjEdge> adj_;
    /** Neighbour ids: every predecessor row, then every successor row. */
    std::vector<NodeId> nbr_;
    std::string name_;
};

} // namespace cams

#endif // CAMS_GRAPH_DFG_HH
