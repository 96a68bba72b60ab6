#include "graph/builder.hh"

#include "support/logging.hh"

namespace cams
{

DfgBuilder::DfgBuilder(std::string loop_name)
{
    graph_.setName(std::move(loop_name));
}

DfgBuilder &
DfgBuilder::op(const std::string &name, Opcode opcode, int latency)
{
    cams_assert(!names_.count(name), "duplicate node name '", name, "'");
    names_[name] = graph_.addNode(opcode, latency, name);
    return *this;
}

DfgBuilder &
DfgBuilder::flow(const std::string &src, const std::string &dst,
                 int latency)
{
    graph_.addEdge(id(src), id(dst), latency, 0);
    return *this;
}

DfgBuilder &
DfgBuilder::carried(const std::string &src, const std::string &dst,
                    int distance, int latency)
{
    cams_assert(distance >= 1, "carried edge needs distance >= 1");
    graph_.addEdge(id(src), id(dst), latency, distance);
    return *this;
}

DfgBuilder &
DfgBuilder::chain(const std::vector<std::string> &names)
{
    for (size_t i = 0; i + 1 < names.size(); ++i)
        flow(names[i], names[i + 1]);
    return *this;
}

NodeId
DfgBuilder::id(const std::string &name) const
{
    auto it = names_.find(name);
    if (it == names_.end())
        cams_fatal("unknown node name '", name, "'");
    return it->second;
}

Dfg
DfgBuilder::build()
{
    graph_.seal();
    return std::move(graph_);
}

} // namespace cams
