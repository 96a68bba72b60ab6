#include "graph/scc.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

int
SccInfo::numNonTrivial() const
{
    return static_cast<int>(
        std::count(nonTrivial.begin(), nonTrivial.end(), true));
}

SccInfo
findSccs(const Dfg &graph)
{
    const int n = graph.numNodes();
    SccInfo info;
    info.componentOf.assign(n, -1);
    info.members.reserve(n);
    info.offsets.reserve(n + 1);
    info.offsets.push_back(0);

    // Discovery index and lowlink per node. A visited node sits on
    // Tarjan's stack exactly until its component is emitted, so
    // "visited and not yet in a component" is the on-stack test.
    struct Link
    {
        int index = -1;
        int lowlink = 0;
    };
    std::vector<Link> link(n);
    std::vector<NodeId> stack;
    stack.reserve(n);
    int nextIndex = 0;

    // Explicit DFS frame: node plus position within its out-edge list.
    struct Frame
    {
        NodeId node;
        size_t edgePos;
    };
    std::vector<Frame> dfs;
    dfs.reserve(n);

    for (NodeId root = 0; root < n; ++root) {
        if (link[root].index != -1)
            continue;
        dfs.push_back({root, 0});
        link[root].index = link[root].lowlink = nextIndex++;
        stack.push_back(root);

        while (!dfs.empty()) {
            Frame &frame = dfs.back();
            const auto out = graph.outEdges(frame.node);
            if (frame.edgePos < out.size()) {
                NodeId next = out[frame.edgePos].node;
                ++frame.edgePos;
                if (link[next].index == -1) {
                    link[next].index = link[next].lowlink = nextIndex++;
                    stack.push_back(next);
                    dfs.push_back({next, 0});
                } else if (info.componentOf[next] == -1) {
                    link[frame.node].lowlink = std::min(
                        link[frame.node].lowlink, link[next].index);
                }
            } else {
                NodeId done = frame.node;
                dfs.pop_back();
                if (!dfs.empty()) {
                    NodeId parent = dfs.back().node;
                    link[parent].lowlink = std::min(link[parent].lowlink,
                                                    link[done].lowlink);
                }
                if (link[done].lowlink == link[done].index) {
                    // The component is the stack above (and including)
                    // done, already in discovery order.
                    const int component = info.numComponents();
                    auto first = stack.end();
                    do {
                        --first;
                        info.componentOf[*first] = component;
                    } while (*first != done);
                    info.members.insert(info.members.end(), first,
                                        stack.end());
                    stack.erase(first, stack.end());
                    info.offsets.push_back(
                        static_cast<int>(info.members.size()));
                }
            }
        }
    }

    // A component is a recurrence when it has more than one node or a
    // self-edge.
    info.nonTrivial.assign(info.numComponents(), false);
    for (int c = 0; c < info.numComponents(); ++c) {
        const std::span<const NodeId> members = info.component(c);
        if (members.size() > 1) {
            info.nonTrivial[c] = true;
        } else {
            NodeId only = members[0];
            for (const AdjEdge &edge : graph.outEdges(only)) {
                if (edge.node == only) {
                    info.nonTrivial[c] = true;
                    break;
                }
            }
        }
    }
    return info;
}

} // namespace cams
