#include "sim/serialize.hh"

#include <cstring>
#include <fstream>
#include <sstream>

namespace sim {

namespace {

// 8-byte container preamble: the format name, NUL-padded. The version
// is a separate field so "wrong version" and "not a snapshot" produce
// distinct diagnostics.
constexpr char magic[8] = {'C', 'C', 'K', 'P', 'T', '1', 0, 0};
constexpr std::uint32_t formatVersion = 1;

void
putU64(std::string &out, std::uint64_t v)
{
    char b[8];
    for (unsigned i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out.append(b, 8);
}

std::uint64_t
getU64(std::string_view in, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

} // namespace

void
Archive::bytes(void *p, std::size_t n)
{
    if (!_loading) {
        _out.append(static_cast<const char *>(p), n);
        return;
    }
    need(n, "raw bytes");
    std::memcpy(p, _in.data() + _pos, n);
    _pos += n;
}

void
Archive::tag(std::string_view name)
{
    std::uint64_t n = name.size();
    (*this)(n);
    if (!_loading) {
        _out.append(name);
        return;
    }
    need(n, "section tag");
    std::string_view got = _in.substr(_pos, n);
    _pos += n;
    if (got != name) {
        throw SnapshotError("snapshot section mismatch: expected \"" +
                            std::string(name) + "\", found \"" +
                            std::string(got) + "\"");
    }
}

void
Archive::put(std::uint64_t v)
{
    putU64(_out, v);
}

std::uint64_t
Archive::get()
{
    need(8, "integer");
    std::uint64_t v = getU64(_in, _pos);
    _pos += 8;
    return v;
}

void
Archive::need(std::size_t n, const char *what)
{
    if (_in.size() - _pos < n) {
        throw SnapshotError(std::string("snapshot truncated while reading ") +
                            what);
    }
}

void
Archive::outOfRange(std::uint64_t value, std::uint64_t max)
{
    throw SnapshotError("snapshot corrupt: value " + std::to_string(value) +
                        " out of range (at most " + std::to_string(max) +
                        ")");
}

void
Archive::overrun(std::uint64_t n)
{
    throw SnapshotError("snapshot corrupt: list length " +
                        std::to_string(n) + " overruns the payload");
}

void
Archive::mismatch(const char *what, std::uint64_t got, std::uint64_t want)
{
    throw SnapshotError(std::string("snapshot ") + what +
                        " does not match this machine (" +
                        std::to_string(got) + " in the snapshot, " +
                        std::to_string(want) + " here)");
}

std::string
frameSnapshot(const std::string &payload)
{
    std::string out;
    out.reserve(sizeof(magic) + 24 + payload.size());
    out.append(magic, sizeof(magic));
    putU64(out, formatVersion);
    putU64(out, payload.size());
    putU64(out, snapshotChecksum(payload));
    out.append(payload);
    return out;
}

std::string
unframeSnapshot(std::string_view file_bytes)
{
    constexpr std::size_t headerBytes = sizeof(magic) + 24;
    if (file_bytes.size() < headerBytes)
        throw SnapshotError("snapshot truncated: incomplete header");
    if (std::memcmp(file_bytes.data(), magic, sizeof(magic)) != 0)
        throw SnapshotError("not a Cohesion snapshot (bad magic)");
    std::uint64_t version = getU64(file_bytes, sizeof(magic));
    if (version != formatVersion) {
        std::ostringstream os;
        os << "unsupported snapshot version " << version << " (expected "
           << formatVersion << ")";
        throw SnapshotError(os.str());
    }
    std::uint64_t payload_len = getU64(file_bytes, sizeof(magic) + 8);
    std::uint64_t checksum = getU64(file_bytes, sizeof(magic) + 16);
    if (file_bytes.size() - headerBytes != payload_len) {
        std::ostringstream os;
        os << "snapshot truncated: header promises " << payload_len
           << " payload bytes, file holds "
           << (file_bytes.size() - headerBytes);
        throw SnapshotError(os.str());
    }
    std::string_view payload = file_bytes.substr(headerBytes);
    if (snapshotChecksum(payload) != checksum)
        throw SnapshotError("snapshot corrupt (checksum mismatch)");
    return std::string(payload);
}

void
writeSnapshotFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SnapshotError("cannot write snapshot " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        throw SnapshotError("short write on snapshot " + path);
}

std::string
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open snapshot " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        throw SnapshotError("read error on snapshot " + path);
    return buf.str();
}

} // namespace sim
