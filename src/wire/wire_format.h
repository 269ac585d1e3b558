/**
 * @file
 * ARK wire protocol v1: frame envelope, error codes, and the
 * bounds-checked byte cursors every frame body is built from.
 *
 * The NORMATIVE reference is docs/wire_format.md; section numbers in
 * comments below (§N) cite it. This header owns the §2 frame envelope
 * (magic + version + type + body length + parameter-set hash), the §7
 * error-code enumeration, and the §4 primitive encodings via
 * ByteWriter/ByteReader. Serialization of the CKKS payload types
 * (params, plaintext, ciphertext, keys) lives in wire/serializer.h;
 * the socket transport lives in net/.
 *
 * Everything on the wire is little-endian (§1). Scalars are written
 * byte by byte; word arrays (poly limbs) move as one memcpy on
 * little-endian hosts, and only a big-endian build compiles the
 * byte-swapping loop, so the format is identical on any host.
 */

#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace ark {

/** §2: frame magic, the ASCII bytes "ARKW" (read as a LE u32). */
constexpr u32 kWireMagic = 0x574B5241u;

/** §2: the protocol version this implementation speaks. */
constexpr u16 kWireVersion = 1;

/** §2: fixed frame-header size in bytes. */
constexpr size_t kWireHeaderBytes = 24;

/** §2: default receive-side frame-size limit (BatchServerConfig::
 *  max_frame_bytes overrides; ARK_MAX_FRAME_MIB overrides that). */
constexpr u64 kDefaultMaxFrameBytes = 256ull * 1024 * 1024;

/** §5: frame catalog. Values are wire-stable; new types may be
 *  appended within v1, existing values never change meaning. */
enum class FrameType : u16 {
    ClientHello = 0x01,  ///< §5.1
    ServerHello = 0x02,  ///< §5.2
    Params = 0x03,       ///< §5.3
    WorkloadList = 0x04, ///< §5.4
    OpenSession = 0x05,  ///< §5.5
    SessionAccept = 0x06,///< §5.6
    EvalKey = 0x07,      ///< §5.7
    PublicKey = 0x08,    ///< §5.8 reserved, answered with PROTOCOL
    KeyAck = 0x09,       ///< §5.9
    Plaintext = 0x0A,    ///< §5.10 reserved, answered with PROTOCOL
    Ciphertext = 0x0B,   ///< §5.11
    Submit = 0x0C,       ///< §5.12
    Response = 0x0D,     ///< §5.13
    CloseSession = 0x0E, ///< §5.14
    Error = 0x0F,        ///< §5.15
    Stats = 0x10,        ///< §5.16 (appended within v1, §8)
    Ping = 0x11,         ///< §5.17 (appended within v1, §8)
    Pong = 0x12,         ///< §5.18 (appended within v1, §8)
    Submit2 = 0x13,      ///< §5.19 (appended within v1, §8): SUBMIT
                         ///< plus request id + deadline — SUBMIT's
                         ///< body is frozen, so the deadline rides a
                         ///< new type instead of a new field
};

const char *frameTypeName(FrameType t);

/** §7: wire error codes (the ERROR frame's `code` field). The
 *  QUEUE_FULL / SHED / SERVER_SHUTDOWN triple is the typed surface
 *  of RequestQueue admission (serve/request_queue.h AdmitResult):
 *  QUEUE_FULL and SHED are retryable (capacity vs. SLO admission
 *  control shedding — the client's cue to back off), SERVER_SHUTDOWN
 *  is fatal. Shed appended within v1 per the §8 policy. */
enum class WireCode : u16 {
    Ok = 0,
    BadMagic = 1,
    UnsupportedVersion = 2,
    BadFrameType = 3,
    FrameTooLarge = 4,
    TruncatedFrame = 5,
    TrailingBytes = 6,
    ParamsMismatch = 7,
    BadField = 8,
    UnknownSession = 9,
    SessionLimit = 10,
    QueueFull = 11,
    ServerShutdown = 12,
    MissingKey = 13,
    UnknownWorkload = 14,
    LevelExhausted = 15,
    ExecFailed = 16,
    Protocol = 17,
    Shed = 18,
    /** Appended within v1 (§8): the request's client-supplied
     *  deadline expired before execution started — retryable, the
     *  work was never done. */
    DeadlineExceeded = 19,
    /** Appended within v1 (§8): the server's idle-session reaper
     *  closed the connection (no frame within ARK_IDLE_TIMEOUT_MS).
     *  Fatal for the session; reconnect to continue. */
    IdleTimeout = 20,
};

const char *wireCodeName(WireCode c);

/** A protocol violation or malformed frame, carrying its §7 code. */
class WireError : public std::runtime_error
{
  public:
    WireError(WireCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    WireCode code() const { return code_; }

  private:
    WireCode code_;
};

/** §2: the decoded 24-byte frame envelope. */
struct FrameHeader
{
    u16 version = kWireVersion;
    FrameType type = FrameType::Error;
    u64 body_len = 0;
    /** Hash of the parameter set the frame's payload is bound to
     *  (§3); 0 when no set is bound yet (hello/error frames). */
    u64 params_hash = 0;
};

/**
 * §4 primitive encodings, write side. Append-only; the finished
 * buffer becomes a frame body (or a hash preimage, §3).
 */
class ByteWriter
{
  public:
    void putU8(u8 v) { buf_.push_back(v); }
    void putU16(u16 v);
    void putU32(u32 v);
    void putU64(u64 v);
    void putI64(i64 v) { putU64(static_cast<u64>(v)); }
    void putI32(int v) { putU32(static_cast<u32>(v)); }
    /** IEEE-754 bit pattern as u64 (§4). */
    void putF64(double v);
    /** u32 byte length + UTF-8 bytes, no terminator (§4). */
    void putString(const std::string &s);
    void putBytes(const void *data, size_t n);
    /** @p n u64 words, each LE (§4): one memcpy on an LE host. */
    void putU64s(const u64 *words, size_t n);
    /** Make room for @p n more bytes, so a large body is allocated
     *  once instead of regrown while it is appended. */
    void reserve(size_t n) { buf_.reserve(buf_.size() + n); }

    const std::vector<u8> &bytes() const { return buf_; }
    std::vector<u8> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<u8> buf_;
};

/**
 * §4 primitive encodings, read side. Every read is bounds-checked
 * and throws WireError(TruncatedFrame) on overrun; finish() throws
 * WireError(TrailingBytes) if the body was not fully consumed — a
 * v1 receiver rejects both malformations (§8).
 */
class ByteReader
{
  public:
    ByteReader(const u8 *data, size_t size) : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<u8> &body)
        : data_(body.data()), size_(body.size())
    {
    }

    u8 getU8();
    u16 getU16();
    u32 getU32();
    u64 getU64();
    i64 getI64() { return static_cast<i64>(getU64()); }
    int getI32() { return static_cast<int>(getU32()); }
    double getF64();
    std::string getString();
    /** Read @p n LE u64 words into @p out and return the largest, so
     *  the caller range-checks them in the same pass as the copy. */
    u64 getU64s(u64 *out, size_t n);

    size_t remaining() const { return size_ - pos_; }
    /** §8: reject bodies with unconsumed bytes. */
    void finish() const;

  private:
    void need(size_t n) const;

    const u8 *data_;
    size_t size_;
    size_t pos_ = 0;
};

/** The §2 header of a frame whose body is @p body_len bytes. */
std::array<u8, kWireHeaderBytes> encodeFrameHeader(FrameType type,
                                                   u64 params_hash,
                                                   u64 body_len);

/** Assemble a full frame: §2 header followed by @p body. */
std::vector<u8> encodeFrame(FrameType type, u64 params_hash,
                            const std::vector<u8> &body);

/**
 * Decode and validate a §2 header from exactly kWireHeaderBytes
 * bytes. Throws WireError with BadMagic / UnsupportedVersion /
 * BadFrameType / FrameTooLarge (against @p max_frame_bytes). Magic
 * and version are checked before anything else, in that order, so a
 * future-version peer is told UnsupportedVersion rather than being
 * misparsed (§8).
 */
FrameHeader decodeFrameHeader(const u8 *data, u64 max_frame_bytes);

} // namespace ark
