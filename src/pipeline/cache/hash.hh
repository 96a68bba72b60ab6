/**
 * @file
 * Content hashing for the persistent compile cache.
 *
 * Two ingredients:
 *
 *  - small mixing primitives (splitmix64 finalizer, ordered fold,
 *    a word-at-a-time byte hash) shared by every key component and
 *    by the entry and wire-frame checksums;
 *  - canonicalLoopHash(), a renumbering-invariant structural hash of
 *    a loop graph. Isomorphic graphs -- same opcodes, latencies and
 *    dependence structure under any node permutation or renaming --
 *    hash identically, so a cache populated by one suite generator
 *    survives cosmetic reorderings of the input.
 *
 * The canonical hash is a Weisfeiler-Leman style refinement: every
 * node starts from its (opcode, latency) color, then absorbs the
 * sorted multiset of its in- and out-edge signatures (edge latency,
 * distance, neighbor color) for a few rounds, and the graph hash is
 * the fold of the sorted final colors. Collisions between
 * non-isomorphic graphs are astronomically unlikely but *possible*;
 * the cache therefore never trusts the hash alone -- every hit is
 * gated on an exact byte comparison of the stored input (see
 * compile_cache.hh), so a collision degrades to a miss, never to a
 * wrong answer.
 */

#ifndef CAMS_PIPELINE_CACHE_HASH_HH
#define CAMS_PIPELINE_CACHE_HASH_HH

#include <cstdint>
#include <string_view>

#include "graph/dfg.hh"

namespace cams
{

/** splitmix64 finalizer: a cheap, well-mixed 64-bit permutation. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-sensitive fold of one value into a running hash. */
inline uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return mix64(seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL +
                         (seed << 6) + (seed >> 2)));
}

/**
 * Hash of a byte string, eight bytes per step. Each step reads one
 * little-endian word (the tail zero-padded), so the value is the same
 * on every host, and is a bijection of the running state for a fixed
 * word and of the word for a fixed state: two strings of one length
 * that differ inside one word always hash differently, so a flipped
 * bit always changes the sum. The length is folded in last and the
 * result finished through mix64.
 *
 * The value is persisted (entry checksums, machine hashes in entry
 * names) and sent on the wire (frame checksums): changing it needs
 * both the cache's entry format version and the serve protocol
 * version bumped.
 */
uint64_t hashBytes(std::string_view bytes);

/**
 * Renumbering-invariant structural hash of a loop graph. Node and
 * loop names are deliberately excluded: they do not affect any
 * compile result. See the file comment for the collision policy.
 */
uint64_t canonicalLoopHash(const Dfg &graph);

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_HASH_HH
