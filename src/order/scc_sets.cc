#include "order/scc_sets.hh"

#include <algorithm>

#include "graph/recmii.hh"
#include "support/logging.hh"

namespace cams
{

NodeSets
buildPrioritySets(const Dfg &graph, const SccInfo &sccs)
{
    const int n = graph.numNodes();

    struct Candidate
    {
        int recMii;
        int size;
        NodeId minMember;
        /** The component's members in `sorted`. */
        int first;
    };

    // Every component's members, each component sorted ascending.
    std::vector<NodeId> sorted = sccs.members;
    std::vector<Candidate> recurrences;
    recurrences.reserve(sccs.numNonTrivial());

    for (int c = 0; c < sccs.numComponents(); ++c) {
        if (sccs.nonTrivial[c]) {
            const auto first = sorted.begin() + sccs.offsets[c];
            const auto last = sorted.begin() + sccs.offsets[c + 1];
            std::sort(first, last);
            Candidate candidate;
            candidate.recMii = sccRecMii(graph, {first, last});
            candidate.size = static_cast<int>(last - first);
            candidate.minMember = *first;
            candidate.first = sccs.offsets[c];
            recurrences.push_back(candidate);
        }
    }

    std::sort(recurrences.begin(), recurrences.end(),
              [](const Candidate &x, const Candidate &y) {
                  if (x.recMii != y.recMii)
                      return x.recMii > y.recMii;
                  if (x.size != y.size)
                      return x.size > y.size;
                  return x.minMember < y.minMember;
              });

    NodeSets result;
    result.setOf.assign(n, -1);
    result.members.reserve(n);
    result.offsets.reserve(recurrences.size() + 2);
    result.offsets.push_back(0);
    result.recMii.reserve(recurrences.size() + 1);

    // Following the Swing Modulo Scheduler's set construction, each
    // recurrence set also absorbs the not-yet-chosen nodes lying on
    // paths between previously chosen sets and the new SCC, so the
    // ordering never strands a node between two already-placed
    // neighborhoods. A node is chosen once it has a set. The four
    // reachability searches per recurrence share one mark per node,
    // a bit each; a loop with one recurrence never needs them.
    enum : char
    {
        inScc = 1,
        downFromChosen = 2,
        upFromChosen = 4,
        downFromScc = 8,
        upFromScc = 16,
    };
    std::vector<char> mark;
    std::vector<NodeId> stack;
    auto reach = [&](bool fromScc, char bit, bool forward) {
        for (NodeId v = 0; v < n; ++v) {
            const bool seeded = fromScc ? (mark[v] & inScc) != 0
                                        : result.setOf[v] != -1;
            if (seeded) {
                mark[v] |= bit;
                stack.push_back(v);
            }
        }
        while (!stack.empty()) {
            const NodeId at = stack.back();
            stack.pop_back();
            for (const AdjEdge &edge :
                 forward ? graph.outEdges(at) : graph.inEdges(at)) {
                const NodeId next = edge.node;
                if (!(mark[next] & bit)) {
                    mark[next] |= bit;
                    stack.push_back(next);
                }
            }
        }
    };

    for (const Candidate &candidate : recurrences) {
        const size_t first = result.members.size();
        result.members.insert(result.members.end(),
                              sorted.begin() + candidate.first,
                              sorted.begin() + candidate.first +
                                  candidate.size);
        if (result.numSets() > 0) {
            mark.assign(n, 0);
            stack.reserve(n);
            for (size_t i = first; i < result.members.size(); ++i)
                mark[result.members[i]] = inScc;
            reach(false, downFromChosen, true);
            reach(false, upFromChosen, false);
            reach(true, downFromScc, true);
            reach(true, upFromScc, false);
            for (NodeId v = 0; v < n; ++v) {
                if ((mark[v] & inScc) || result.setOf[v] != -1)
                    continue;
                const bool between =
                    ((mark[v] & downFromChosen) && (mark[v] & upFromScc)) ||
                    ((mark[v] & downFromScc) && (mark[v] & upFromChosen));
                if (between)
                    result.members.push_back(v);
            }
            std::sort(result.members.begin() + first,
                      result.members.end());
        }
        for (size_t i = first; i < result.members.size(); ++i)
            result.setOf[result.members[i]] = result.numSets();
        result.offsets.push_back(static_cast<int>(result.members.size()));
        result.recMii.push_back(candidate.recMii);
    }

    // The trailing set: every node outside the recurrences that no set
    // absorbed, ascending.
    const size_t first = result.members.size();
    for (NodeId node = 0; node < n; ++node) {
        if (!sccs.inRecurrence(node) && result.setOf[node] == -1)
            result.members.push_back(node);
    }
    if (result.members.size() > first) {
        for (size_t i = first; i < result.members.size(); ++i)
            result.setOf[result.members[i]] = result.numSets();
        result.offsets.push_back(static_cast<int>(result.members.size()));
        result.recMii.push_back(1);
    }
    return result;
}

} // namespace cams
