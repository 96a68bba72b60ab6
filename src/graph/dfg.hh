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
 */

#ifndef CAMS_GRAPH_DFG_HH
#define CAMS_GRAPH_DFG_HH

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

/** Append-only data-flow graph with adjacency indexing. */
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

    /** Reserves room for a node's in- and out-edges. */
    void reserveEdges(NodeId id, int in, int out);

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

    /** Outgoing edge ids of a node. */
    const std::vector<EdgeId> &outEdges(NodeId id) const;

    /** Incoming edge ids of a node. */
    const std::vector<EdgeId> &inEdges(NodeId id) const;

    /** Distinct successor node ids (duplicates collapsed). */
    std::vector<NodeId> successors(NodeId id) const;

    /** Distinct predecessor node ids (duplicates collapsed). */
    std::vector<NodeId> predecessors(NodeId id) const;

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
    std::vector<DfgNode> nodes_;
    std::vector<DfgEdge> edges_;
    std::vector<std::vector<EdgeId>> out_;
    std::vector<std::vector<EdgeId>> in_;
    std::string name_;
};

} // namespace cams

#endif // CAMS_GRAPH_DFG_HH
