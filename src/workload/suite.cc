#include "workload/suite.hh"

#include "graph/scc.hh"

namespace cams
{

namespace
{

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::vector<Dfg>
buildSuite(int count, uint64_t seed, const GeneratorParams &params)
{
    std::vector<Dfg> suite;
    suite.reserve(count);
    for (int i = 0; i < count; ++i) {
        suite.push_back(generateLoop(mixSeed(seed, i), params,
                                     "synth" + std::to_string(i)));
    }
    return suite;
}

SuiteStats
computeSuiteStats(const std::vector<Dfg> &suite)
{
    SuiteStats stats;
    stats.totalLoops = static_cast<int>(suite.size());
    for (const Dfg &loop : suite) {
        stats.nodes.add(loop.numNodes());
        stats.edges.add(loop.numEdges());
        const SccInfo sccs = findSccs(loop);
        const int nontrivial = sccs.numNonTrivial();
        stats.sccsPerLoop.add(nontrivial);
        if (nontrivial > 0) {
            ++stats.loopsWithSccs;
            int members = 0;
            for (int c = 0; c < sccs.numComponents(); ++c) {
                if (sccs.nonTrivial[c]) {
                    members +=
                        static_cast<int>(sccs.component(c).size());
                }
            }
            stats.sccNodes.add(members);
        }
    }
    return stats;
}

} // namespace cams
