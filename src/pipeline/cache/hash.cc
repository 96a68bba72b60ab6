#include "pipeline/cache/hash.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace cams
{

namespace
{

/** Little-endian value of @p count (at most eight) bytes,
 *  zero-padded. */
uint64_t
loadWord(const char *bytes, size_t count)
{
    uint64_t word = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&word, bytes, count);
    } else {
        for (size_t i = 0; i < count; ++i)
            word |= uint64_t(static_cast<unsigned char>(bytes[i])) << (8 * i);
    }
    return word;
}

/**
 * One step of hashBytes. The word is spread by an odd multiply, a
 * rotate and another odd multiply (a bijection of the word), xored
 * into the state, and the state rotated, multiplied by 5 and offset
 * (a bijection of the state). The constants are MurmurHash3's.
 */
uint64_t
absorbWord(uint64_t h, uint64_t word)
{
    h ^= std::rotl(word * 0x87c37b91114253d5ULL, 31) *
         0x4cf5ad432745937fULL;
    return std::rotl(h, 27) * 5 + 0x52dce729;
}

/** Signature of one edge as seen from one endpoint. */
uint64_t
edgeSignature(uint64_t neighbor_color, const DfgEdge &edge,
              uint64_t direction_tag)
{
    uint64_t sig = direction_tag;
    sig = hashCombine(sig, neighbor_color);
    sig = hashCombine(sig, static_cast<uint64_t>(edge.latency));
    sig = hashCombine(sig, static_cast<uint64_t>(edge.distance));
    return sig;
}

/** Order-invariant fold: sort the signatures, then fold in order. */
uint64_t
foldSorted(std::vector<uint64_t> &sigs)
{
    std::sort(sigs.begin(), sigs.end());
    uint64_t acc = 0x5bd1e9955bd1e995ULL;
    for (const uint64_t sig : sigs)
        acc = hashCombine(acc, sig);
    return acc;
}

} // namespace

uint64_t
hashBytes(std::string_view bytes)
{
    const char *p = bytes.data();
    const size_t n = bytes.size();
    uint64_t h = 0xcbf29ce484222325ULL;
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        h = absorbWord(h, loadWord(p + i, 8));
    if (i < n)
        h = absorbWord(h, loadWord(p + i, n - i));
    return mix64(h ^ static_cast<uint64_t>(n));
}

uint64_t
canonicalLoopHash(const Dfg &graph)
{
    const int n = graph.numNodes();
    std::vector<uint64_t> color(n), next(n);
    for (NodeId v = 0; v < n; ++v) {
        const DfgNode &node = graph.node(v);
        uint64_t c = 0x9ae16a3b2f90404fULL;
        c = hashCombine(c, static_cast<uint64_t>(node.op));
        c = hashCombine(c, static_cast<uint64_t>(node.latency));
        color[v] = c;
    }

    // Three refinement rounds separate everything the suite's loop
    // shapes can distinguish; the exact-match gate covers the rest.
    std::vector<uint64_t> in_sigs, out_sigs;
    for (int round = 0; round < 3; ++round) {
        for (NodeId v = 0; v < n; ++v) {
            in_sigs.clear();
            out_sigs.clear();
            for (const EdgeId id : graph.inEdges(v)) {
                const DfgEdge &edge = graph.edge(id);
                in_sigs.push_back(
                    edgeSignature(color[edge.src], edge, 0x11));
            }
            for (const EdgeId id : graph.outEdges(v)) {
                const DfgEdge &edge = graph.edge(id);
                out_sigs.push_back(
                    edgeSignature(color[edge.dst], edge, 0x22));
            }
            uint64_t c = color[v];
            c = hashCombine(c, foldSorted(in_sigs));
            c = hashCombine(c, foldSorted(out_sigs));
            next[v] = c;
        }
        color.swap(next);
    }

    uint64_t h = 0x8f14e45fceea167aULL;
    h = hashCombine(h, static_cast<uint64_t>(n));
    h = hashCombine(h, static_cast<uint64_t>(graph.numEdges()));
    h = hashCombine(h, foldSorted(color));
    return h;
}

} // namespace cams
