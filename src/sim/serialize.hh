/**
 * @file
 * Checkpoint serialization core. A machine snapshot is a flat binary
 * payload wrapped in the versioned "CCKPT1" container (magic, version,
 * payload length, FNV-1a checksum). Each stateful component has one
 * hook,
 *
 *     void snapshot(sim::Archive &ar);
 *
 * that lists its fields once: checkpoint runs it over a writing
 * Archive and restore over a reading one, so both directions walk the
 * same field sequence by construction. Section tags give mismatched
 * snapshots a named failure point instead of a silent misparse, and
 * the reader range-checks every field it stores.
 *
 * Snapshots are only taken at quiescent points (event queue drained,
 * no in-flight protocol transactions), so no type-erased event
 * callables or coroutine frames ever need serializing — see
 * DESIGN.md §12 for the quiescent-point rule.
 *
 * Encoding is explicit little-endian, independent of host byte order.
 * Every malformed-input path throws SnapshotError; tools translate
 * that to exit code 4 (the cohesion-trace/cohesion-diff "artifact
 * corrupt" convention).
 */

#ifndef COHESION_SIM_SERIALIZE_HH
#define COHESION_SIM_SERIALIZE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace sim {

/** Any snapshot failure: truncated/corrupt files, version or section
 *  mismatches, machine-shape incompatibility. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** FNV-1a over a byte string (snapshot payload checksum). */
inline std::uint64_t
snapshotChecksum(std::string_view bytes)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

/**
 * One snapshot pass, in either direction: a writer (default-built)
 * appends each field to payload(); a reader (built over a payload)
 * overwrites each field from it. Every field travels as one
 * little-endian u64, except bytes() (raw) and tag() (u64 length, then
 * the name). The reader checks each value against what its field can
 * hold before it is stored, so a corrupt snapshot fails here with a
 * SnapshotError instead of reaching an allocation or an array index.
 */
class Archive
{
  public:
    /** A writer. */
    Archive() = default;

    /** A reader over @p payload, which must outlive the archive. */
    explicit Archive(std::string_view payload)
        : _in(payload), _loading(true)
    {}

    /** True for a reader. Hooks branch on it only to rebuild derived
     *  structures (indexes, maps, allocations) from what was read. */
    bool loading() const { return _loading; }

    /** The bytes a writer has produced. */
    const std::string &payload() const { return _out; }

    /** True once a reader has consumed its whole payload. */
    bool atEnd() const { return _pos == _in.size(); }

    /** One field: an unsigned integer, bool, enum or double is one
     *  word (doubles bit-cast; a reader rejects a value the field's
     *  type cannot hold); a std::array is its elements in order; any
     *  other object runs its own snapshot() hook. */
    template <typename T>
    void
    operator()(T &field)
    {
        if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
            if (_loading)
                field = fromWord<T>(get());
            else
                put(toWord(field));
        } else {
            field.snapshot(*this);
        }
    }

    template <typename T, std::size_t N>
    void
    operator()(std::array<T, N> &fields)
    {
        for (T &f : fields)
            (*this)(f);
    }

    /** A fact of this machine's shape the snapshot must share: a
     *  writer writes @p value, a reader demands it. */
    template <typename T>
    void
    expect(const T &value, const char *what)
    {
        std::uint64_t want = toWord(value);
        if (!_loading)
            put(want);
        else if (std::uint64_t got = get(); got != want)
            mismatch(what, got, want);
    }

    /** A list length. Every element takes at least one word, so a
     *  reader rejects a count the rest of the payload cannot hold
     *  before anything is allocated for it. */
    template <typename T>
    void
    count(T &n)
    {
        (*this)(n);
        if (_loading && n > (_in.size() - _pos) / 8)
            overrun(n);
    }

    /** A field whose valid values are [0, @p limit): an enum, or an
     *  index into a fixed table. */
    template <typename T>
    void
    below(T &field, std::uint64_t limit)
    {
        (*this)(field);
        if (_loading && toWord(field) >= limit)
            outOfRange(toWord(field), limit - 1);
    }

    /** @p n raw bytes at @p p. */
    void bytes(void *p, std::size_t n);

    /** A named section marker; a reader demands the same name. */
    void tag(std::string_view name);

  private:
    template <typename T>
    static std::uint64_t
    toWord(T v)
    {
        if constexpr (std::is_same_v<T, double>)
            return std::bit_cast<std::uint64_t>(v);
        else
            return static_cast<std::uint64_t>(v);
    }

    template <typename T>
    static T
    fromWord(std::uint64_t w)
    {
        if constexpr (std::is_same_v<T, double>) {
            return std::bit_cast<double>(w);
        } else {
            using U = typename std::conditional_t<std::is_enum_v<T>,
                                                  std::underlying_type<T>,
                                                  std::type_identity<T>>::type;
            static_assert(std::is_unsigned_v<U>,
                          "snapshot fields are unsigned");
            if (w > std::numeric_limits<U>::max())
                outOfRange(w, std::numeric_limits<U>::max());
            return static_cast<T>(w);
        }
    }

    void put(std::uint64_t v);
    std::uint64_t get();
    void need(std::size_t n, const char *what);

    [[noreturn]] static void outOfRange(std::uint64_t value,
                                        std::uint64_t max);
    [[noreturn]] static void overrun(std::uint64_t n);
    [[noreturn]] static void mismatch(const char *what, std::uint64_t got,
                                      std::uint64_t want);

    std::string _out;
    std::string_view _in;
    std::size_t _pos = 0;
    bool _loading = false;
};

/** Wrap @p payload in the CCKPT1 container (in memory). */
std::string frameSnapshot(const std::string &payload);

/** Unwrap a CCKPT1 container; throws SnapshotError on any damage. */
std::string unframeSnapshot(std::string_view file_bytes);

/** Write the framed snapshot @p bytes to @p path as they are. */
void writeSnapshotFile(const std::string &path, const std::string &bytes);

/** The bytes of the snapshot file at @p path, still framed. */
std::string readSnapshotFile(const std::string &path);

} // namespace sim

#endif // COHESION_SIM_SERIALIZE_HH
