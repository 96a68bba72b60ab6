/**
 * @file
 * Fluent helper for constructing loop graphs by name in tests,
 * examples and the hand-coded kernel library.
 */

#ifndef CAMS_GRAPH_BUILDER_HH
#define CAMS_GRAPH_BUILDER_HH

#include <map>
#include <string>

#include "graph/dfg.hh"

namespace cams
{

/** Builds a Dfg with string-named nodes. */
class DfgBuilder
{
  public:
    /** Starts a new loop graph with the given report name. */
    explicit DfgBuilder(std::string loop_name = "");

    /**
     * Adds a named node.
     * @param latency < 0 uses the Table 2 default for the opcode.
     */
    DfgBuilder &op(const std::string &name, Opcode opcode,
                   int latency = -1);

    /** Adds an intra-iteration dependence (distance 0). */
    DfgBuilder &flow(const std::string &src, const std::string &dst,
                     int latency = -1);

    /** Adds a loop-carried dependence with the given distance. */
    DfgBuilder &carried(const std::string &src, const std::string &dst,
                        int distance, int latency = -1);

    /** Adds a left-to-right chain of intra-iteration dependences. */
    DfgBuilder &chain(const std::vector<std::string> &names);

    /** Node id for a name added earlier; fatal on unknown names. */
    NodeId id(const std::string &name) const;

    /** Finishes, seals and returns the graph. */
    Dfg build();

  private:
    Dfg graph_;
    std::map<std::string, NodeId> names_;
};

} // namespace cams

#endif // CAMS_GRAPH_BUILDER_HH
