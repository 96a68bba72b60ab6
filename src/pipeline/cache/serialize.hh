/**
 * @file
 * Binary serialization for the persistent compile cache.
 *
 * A deliberately small, explicit wire format: little-endian
 * fixed-width integers, IEEE doubles by bit pattern, and
 * length-prefixed strings, written through ByteWriter and read back
 * through the bounds-checked ByteReader. Every reader returns false
 * instead of throwing on truncated or malformed input -- a damaged
 * cache entry must degrade to a miss, never to UB or an abort. A
 * reader sizes nothing by a count the unread bytes cannot hold, and
 * refuses a field outside the range of the int it fills, so an
 * accepted image always re-packs to the same bytes.
 *
 * On top of the primitives sit pack/read pairs for the three domain
 * payloads a cache entry carries: the input Dfg (node ids preserved
 * exactly -- the text format in graph/textio is name-keyed and would
 * not round-trip anonymous or duplicate-named nodes), the
 * MachineDesc, and the full CompileResult. packDfg/packMachine are
 * also the exact-match fingerprints the cache compares verbatim
 * before trusting a hash hit.
 */

#ifndef CAMS_PIPELINE_CACHE_SERIALIZE_HH
#define CAMS_PIPELINE_CACHE_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/dfg.hh"
#include "machine/machine.hh"
#include "pipeline/driver.hh"

namespace cams
{

/** Appends fixed-width little-endian fields to a byte string. */
class ByteWriter
{
  public:
    void u32(uint32_t value) { put(value, 4); }
    void u64(uint64_t value) { put(value, 8); }
    void i64(int64_t value) { u64(static_cast<uint64_t>(value)); }
    void f64(double value);
    void str(std::string_view value);

    /** Makes room for @p bytes more bytes without writing any. */
    void reserve(size_t bytes) { out_.reserve(out_.size() + bytes); }

    const std::string &data() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    /** Appends the low @p width bytes of @p value in one call. */
    void put(uint64_t value, size_t width);

    std::string out_;
};

/**
 * Bounds-checked reader over serialized bytes it does not own: the
 * bytes must outlive the reader and every view() it returns. Any
 * failed read latches ok() false and makes every later read fail too.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool u32(uint32_t &out);
    bool u64(uint64_t &out);
    bool i64(int64_t &out);
    bool f64(double &out);
    bool str(std::string &out);

    /** Reads a length-prefixed string as a view into the input. */
    bool view(std::string_view &out);

    /**
     * Reads a u64 element count and refuses one the unread bytes
     * cannot hold at @p minBytes bytes per element, so a hostile
     * count fails before anything is sized by it.
     */
    bool count(uint64_t &out, size_t minBytes);

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == bytes_.size(); }

  private:
    bool take(size_t count, const char *&out);

    std::string_view bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Exact, id-preserving graph image (also the hit fingerprint). */
std::string packDfg(const Dfg &graph);

/** Rebuilds a graph from packDfg bytes; false on malformed input. */
bool readDfg(std::string_view bytes, Dfg &out);

/** Exact machine image (also the hit fingerprint). */
std::string packMachine(const MachineDesc &machine);

/** Rebuilds a machine from packMachine bytes; false on malformed
 *  bytes, a count or unit field outside int, or a machine
 *  MachineDesc::validationError rejects. */
bool readMachine(std::string_view bytes, MachineDesc &out);

/** Serializes a full CompileResult (cache-transient flags excluded). */
void writeCompileResult(ByteWriter &writer, const CompileResult &result);

/** Inverse of writeCompileResult; false on malformed input, including
 *  a success flag other than 0 or 1 and any field outside int that the
 *  result holds as an int, so an accepted image re-packs to itself. */
bool readCompileResult(ByteReader &reader, CompileResult &out);

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_SERIALIZE_HH
