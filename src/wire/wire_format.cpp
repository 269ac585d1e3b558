#include "wire/wire_format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace ark {

namespace {

/** §1: the wire is LE, so an LE host copies words as they are. */
constexpr bool kHostIsLittleEndian =
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

/** One LE u64 from @p p (unaligned). */
u64
loadLe64(const u8 *p)
{
    u64 v = 0;
    if constexpr (kHostIsLittleEndian) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(p[i]) << (8 * i);
    }
    return v;
}

} // namespace

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::ClientHello:
        return "CLIENT_HELLO";
      case FrameType::ServerHello:
        return "SERVER_HELLO";
      case FrameType::Params:
        return "PARAMS";
      case FrameType::WorkloadList:
        return "WORKLOAD_LIST";
      case FrameType::OpenSession:
        return "OPEN_SESSION";
      case FrameType::SessionAccept:
        return "SESSION_ACCEPT";
      case FrameType::EvalKey:
        return "EVAL_KEY";
      case FrameType::PublicKey:
        return "PUBLIC_KEY";
      case FrameType::KeyAck:
        return "KEY_ACK";
      case FrameType::Plaintext:
        return "PLAINTEXT";
      case FrameType::Ciphertext:
        return "CIPHERTEXT";
      case FrameType::Submit:
        return "SUBMIT";
      case FrameType::Response:
        return "RESPONSE";
      case FrameType::CloseSession:
        return "CLOSE_SESSION";
      case FrameType::Error:
        return "ERROR";
      case FrameType::Stats:
        return "STATS";
      case FrameType::Ping:
        return "PING";
      case FrameType::Pong:
        return "PONG";
      case FrameType::Submit2:
        return "SUBMIT2";
    }
    return "UNKNOWN";
}

const char *
wireCodeName(WireCode c)
{
    switch (c) {
      case WireCode::Ok:
        return "OK";
      case WireCode::BadMagic:
        return "BAD_MAGIC";
      case WireCode::UnsupportedVersion:
        return "UNSUPPORTED_VERSION";
      case WireCode::BadFrameType:
        return "BAD_FRAME_TYPE";
      case WireCode::FrameTooLarge:
        return "FRAME_TOO_LARGE";
      case WireCode::TruncatedFrame:
        return "TRUNCATED_FRAME";
      case WireCode::TrailingBytes:
        return "TRAILING_BYTES";
      case WireCode::ParamsMismatch:
        return "PARAMS_MISMATCH";
      case WireCode::BadField:
        return "BAD_FIELD";
      case WireCode::UnknownSession:
        return "UNKNOWN_SESSION";
      case WireCode::SessionLimit:
        return "SESSION_LIMIT";
      case WireCode::QueueFull:
        return "QUEUE_FULL";
      case WireCode::ServerShutdown:
        return "SERVER_SHUTDOWN";
      case WireCode::MissingKey:
        return "MISSING_KEY";
      case WireCode::UnknownWorkload:
        return "UNKNOWN_WORKLOAD";
      case WireCode::LevelExhausted:
        return "LEVEL_EXHAUSTED";
      case WireCode::ExecFailed:
        return "EXEC_FAILED";
      case WireCode::Protocol:
        return "PROTOCOL";
      case WireCode::Shed:
        return "SHED";
      case WireCode::DeadlineExceeded:
        return "DEADLINE_EXCEEDED";
      case WireCode::IdleTimeout:
        return "IDLE_TIMEOUT";
    }
    return "UNKNOWN";
}

void
ByteWriter::putU16(u16 v)
{
    buf_.push_back(static_cast<u8>(v));
    buf_.push_back(static_cast<u8>(v >> 8));
}

void
ByteWriter::putU32(u32 v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void
ByteWriter::putU64(u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void
ByteWriter::putF64(double v)
{
    u64 bits;
    static_assert(sizeof(bits) == sizeof(v), "f64 layout");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
ByteWriter::putString(const std::string &s)
{
    putU32(static_cast<u32>(s.size()));
    putBytes(s.data(), s.size());
}

void
ByteWriter::putBytes(const void *data, size_t n)
{
    const u8 *p = static_cast<const u8 *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

void
ByteWriter::putU64s(const u64 *words, size_t n)
{
    if constexpr (kHostIsLittleEndian) {
        putBytes(words, n * sizeof(u64));
    } else {
        reserve(n * sizeof(u64));
        for (size_t i = 0; i < n; ++i)
            putU64(words[i]);
    }
}

void
ByteReader::need(size_t n) const
{
    if (size_ - pos_ < n)
        throw WireError(WireCode::TruncatedFrame,
                        "frame body truncated: need " +
                            std::to_string(n) + " bytes, have " +
                            std::to_string(size_ - pos_));
}

u8
ByteReader::getU8()
{
    need(1);
    return data_[pos_++];
}

u16
ByteReader::getU16()
{
    need(2);
    u16 v = static_cast<u16>(data_[pos_] |
                             (static_cast<u16>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
}

u32
ByteReader::getU32()
{
    need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

u64
ByteReader::getU64()
{
    need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double
ByteReader::getF64()
{
    const u64 bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::getString()
{
    const u32 n = getU32();
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

u64
ByteReader::getU64s(u64 *out, size_t n)
{
    // Checked as a word count so a huge @p n cannot overflow n * 8.
    if (n > remaining() / sizeof(u64))
        throw WireError(WireCode::TruncatedFrame,
                        "frame body truncated: need " +
                            std::to_string(n) + " words, have " +
                            std::to_string(remaining()) + " bytes");
    const u8 *src = data_ + pos_;
    u64 max = 0;
    for (size_t i = 0; i < n; ++i) {
        const u64 v = loadLe64(src + i * sizeof(u64));
        out[i] = v;
        max = std::max(max, v);
    }
    pos_ += n * sizeof(u64);
    return max;
}

void
ByteReader::finish() const
{
    if (pos_ != size_)
        throw WireError(WireCode::TrailingBytes,
                        std::to_string(size_ - pos_) +
                            " trailing bytes after frame body");
}

std::array<u8, kWireHeaderBytes>
encodeFrameHeader(FrameType type, u64 params_hash, u64 body_len)
{
    ByteWriter w;
    w.putU32(kWireMagic);
    w.putU16(kWireVersion);
    w.putU16(static_cast<u16>(type));
    w.putU64(body_len);
    w.putU64(params_hash);
    std::array<u8, kWireHeaderBytes> header;
    std::copy(w.bytes().begin(), w.bytes().end(), header.begin());
    return header;
}

std::vector<u8>
encodeFrame(FrameType type, u64 params_hash,
            const std::vector<u8> &body)
{
    const auto header = encodeFrameHeader(type, params_hash, body.size());
    std::vector<u8> frame(kWireHeaderBytes + body.size());
    std::copy(header.begin(), header.end(), frame.begin());
    std::copy(body.begin(), body.end(), frame.begin() + kWireHeaderBytes);
    return frame;
}

FrameHeader
decodeFrameHeader(const u8 *data, u64 max_frame_bytes)
{
    ByteReader r(data, kWireHeaderBytes);
    // §8: magic then version are validated before any other field, so
    // the failure mode for a foreign or future peer is well-defined.
    const u32 magic = r.getU32();
    if (magic != kWireMagic) {
        char hex[9];
        std::snprintf(hex, sizeof(hex), "%08X",
                      static_cast<unsigned>(magic));
        throw WireError(WireCode::BadMagic,
                        std::string("bad frame magic 0x") + hex);
    }
    FrameHeader h;
    h.version = r.getU16();
    if (h.version != kWireVersion)
        throw WireError(WireCode::UnsupportedVersion,
                        "unsupported wire version " +
                            std::to_string(h.version));
    const u16 type = r.getU16();
    if (type < static_cast<u16>(FrameType::ClientHello) ||
        type > static_cast<u16>(FrameType::Submit2))
        throw WireError(WireCode::BadFrameType,
                        "unknown frame type " + std::to_string(type));
    h.type = static_cast<FrameType>(type);
    h.body_len = r.getU64();
    if (h.body_len > max_frame_bytes)
        throw WireError(WireCode::FrameTooLarge,
                        "frame body of " + std::to_string(h.body_len) +
                            " bytes exceeds the " +
                            std::to_string(max_frame_bytes) +
                            "-byte limit");
    h.params_hash = r.getU64();
    return h;
}

} // namespace ark
