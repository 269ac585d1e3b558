/**
 * @file
 * Wire-format tests against docs/wire_format.md: golden header bytes
 * (the §9 worked example, locked so any encoding change is a loud
 * wire-format break), envelope rejection (bad magic / future version /
 * unknown type / oversized body), body-level malformation (truncated,
 * trailing, corrupted shape fields), round-trips of every payload
 * type across the functional parameter presets, params hashing across
 * ALL presets including the paper's Table-III-scale sets, and the §6
 * seed-compression contract (bit-identical re-expansion, >= 1.9x
 * smaller evk frames).
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "rns/automorphism.h"
#include "wire/serializer.h"
#include "wire/stats_frame.h"

namespace ark {
namespace {

bool
polyEq(const RnsPoly &x, const RnsPoly &y)
{
    if (!x.sameShape(y) || x.rep() != y.rep())
        return false;
    for (size_t l = 0; l < x.numLimbs(); ++l) {
        for (size_t i = 0; i < x.degree(); ++i) {
            if (x.limb(l)[i] != y.limb(l)[i])
                return false;
        }
    }
    return true;
}

bool
evalKeyEq(const EvalKey &x, const EvalKey &y)
{
    if (x.numDigits() != y.numDigits())
        return false;
    for (size_t d = 0; d < x.numDigits(); ++d) {
        if (!polyEq(x.b[d], y.b[d]) || !polyEq(x.a[d], y.a[d]))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------- §2/§9

TEST(WireEnvelope, GoldenHeaderBytes)
{
    // The §9 worked example of docs/wire_format.md, byte for byte. If
    // this test breaks, the wire format changed and BOTH the spec's
    // §9 hex dump and kWireVersion must be revisited.
    const std::vector<u8> body = {0xAA, 0xBB};
    const std::vector<u8> frame =
        encodeFrame(FrameType::Ciphertext, 0x0123456789ABCDEFull, body);
    const std::vector<u8> expected = {
        0x41, 0x52, 0x4B, 0x57,                         // "ARKW"
        0x01, 0x00,                                     // version 1
        0x0B, 0x00,                                     // CIPHERTEXT
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // body_len 2
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // params hash
        0xAA, 0xBB,                                     // body
    };
    EXPECT_EQ(frame, expected);

    const FrameHeader h =
        decodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
    EXPECT_EQ(h.version, kWireVersion);
    EXPECT_EQ(h.type, FrameType::Ciphertext);
    EXPECT_EQ(h.body_len, 2u);
    EXPECT_EQ(h.params_hash, 0x0123456789ABCDEFull);
}

TEST(WireEnvelope, RejectsBadMagic)
{
    std::vector<u8> frame = encodeFrame(FrameType::ClientHello, 0, {});
    frame[0] ^= 0xFF;
    try {
        decodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
        FAIL() << "bad magic accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::BadMagic);
        // "ARKW" with its first byte flipped, as 8 hex digits.
        EXPECT_STREQ(e.what(), "bad frame magic 0x574B52BE");
    }
}

TEST(WireEnvelope, RejectsFutureVersion)
{
    // A v2 frame from a future peer: magic passes, version does not —
    // and the version check fires BEFORE the type check, so a future
    // frame with an unknown type still reports UnsupportedVersion.
    std::vector<u8> frame = encodeFrame(FrameType::ClientHello, 0, {});
    frame[4] = 2;
    frame[6] = 0x7F; // unknown type too
    try {
        decodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
        FAIL() << "future version accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::UnsupportedVersion);
    }
}

TEST(WireEnvelope, RejectsUnknownFrameType)
{
    // 0x10 was the first unknown value until STATS claimed it (§5.16),
    // then 0x11-0x13 went to PING/PONG/SUBMIT2 (§5.17-§5.19, appended
    // within v1 per §8); 0x14 is now the first unknown.
    for (const u16 bad : {u16{0x00}, u16{0x14}, u16{0xFFFF}}) {
        std::vector<u8> frame =
            encodeFrame(FrameType::ClientHello, 0, {});
        frame[6] = static_cast<u8>(bad);
        frame[7] = static_cast<u8>(bad >> 8);
        try {
            decodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
            FAIL() << "unknown type " << bad << " accepted";
        } catch (const WireError &e) {
            EXPECT_EQ(e.code(), WireCode::BadFrameType);
        }
    }
}

// ------------------------------------------------------------------ §5.16

TEST(WireStats, GoldenStatsHeader)
{
    // A STATS request frame (empty body), byte for byte: type 0x10
    // rides the unchanged v1 envelope.
    const std::vector<u8> frame =
        encodeFrame(FrameType::Stats, 0x0123456789ABCDEFull, {});
    const std::vector<u8> expected = {
        0x41, 0x52, 0x4B, 0x57,                         // "ARKW"
        0x01, 0x00,                                     // version 1
        0x10, 0x00,                                     // STATS
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // body_len 0
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // params hash
    };
    EXPECT_EQ(frame, expected);

    const FrameHeader h =
        decodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
    EXPECT_EQ(h.type, FrameType::Stats);
    EXPECT_EQ(h.body_len, 0u);
    EXPECT_STREQ(frameTypeName(h.type), "STATS");
}

TEST(WireStats, StatsBodyRoundTrip)
{
    RemoteStats s;
    s.uptime_ms = 123456;
    s.active_sessions = 2;
    s.sessions_opened = 17;
    s.outstanding = 5;
    s.queues = {{3, 16, 1, 901}, {0, 8, 2, 77}};
    s.counters = {{"admit_accepted", 978}, {"evk_hit", 12345}};
    s.phases = {{"execute", 978, 4.25, 4.0, 9.5, 22.75},
                {"queue_wait", 978, 0.5, 0.25, 2.0, 3.5}};

    ByteWriter w;
    writeStats(w, s);
    ByteReader r(w.bytes());
    const RemoteStats d = readStats(r);
    r.finish();

    EXPECT_EQ(d.uptime_ms, s.uptime_ms);
    EXPECT_EQ(d.active_sessions, s.active_sessions);
    EXPECT_EQ(d.sessions_opened, s.sessions_opened);
    EXPECT_EQ(d.outstanding, s.outstanding);
    ASSERT_EQ(d.queues.size(), 2u);
    EXPECT_EQ(d.queues[0].queue_depth, 3u);
    EXPECT_EQ(d.queues[0].queue_capacity, 16u);
    EXPECT_EQ(d.queues[1].in_flight, 2u);
    EXPECT_EQ(d.queues[1].total_done, 77u);
    ASSERT_EQ(d.counters.size(), 2u);
    EXPECT_EQ(d.counters[0].name, "admit_accepted");
    EXPECT_EQ(d.counters[1].value, 12345u);
    ASSERT_EQ(d.phases.size(), 2u);
    EXPECT_EQ(d.phases[0].name, "execute");
    EXPECT_EQ(d.phases[0].count, 978u);
    EXPECT_DOUBLE_EQ(d.phases[0].p99_ms, 9.5);
    EXPECT_DOUBLE_EQ(d.phases[1].max_ms, 3.5);

    // A truncated body is rejected with the §8 typed error.
    std::vector<u8> cut(w.bytes().begin(), w.bytes().end() - 3);
    ByteReader rc(cut);
    EXPECT_THROW(readStats(rc), WireError);
}

TEST(WireEnvelope, RejectsOversizedFrame)
{
    // body_len is validated against the receive-side limit before any
    // body byte would be read (§2).
    const std::vector<u8> body(128, 0);
    const std::vector<u8> frame =
        encodeFrame(FrameType::Ciphertext, 0, body);
    try {
        decodeFrameHeader(frame.data(), /*max_frame_bytes=*/64);
        FAIL() << "oversized frame accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::FrameTooLarge);
    }
    // The same frame passes under a sufficient limit.
    EXPECT_EQ(decodeFrameHeader(frame.data(), 128).body_len, 128u);
}

// ------------------------------------------------------------------- §4

TEST(WirePrimitives, TruncationAndTrailingBytesAreTyped)
{
    ByteWriter w;
    w.putU32(7);
    w.putString("ark");
    const std::vector<u8> &buf = w.bytes();

    {
        // Cut mid-string: every read is bounds-checked.
        ByteReader r(buf.data(), buf.size() - 2);
        EXPECT_EQ(r.getU32(), 7u);
        try {
            r.getString();
            FAIL() << "truncated read succeeded";
        } catch (const WireError &e) {
            EXPECT_EQ(e.code(), WireCode::TruncatedFrame);
        }
    }
    {
        // Unconsumed bytes: finish() rejects.
        ByteReader r(buf);
        EXPECT_EQ(r.getU32(), 7u);
        try {
            r.finish();
            FAIL() << "trailing bytes accepted";
        } catch (const WireError &e) {
            EXPECT_EQ(e.code(), WireCode::TrailingBytes);
        }
        EXPECT_EQ(r.getString(), "ark");
        r.finish(); // now fully consumed
    }
}

TEST(WirePrimitives, RoundTripsEveryScalarType)
{
    ByteWriter w;
    w.putU8(0xFE);
    w.putU16(0xBEEF);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putI32(-7);
    w.putF64(2.718281828459045);
    w.putString("");
    w.putString("tenant-a");

    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xFE);
    EXPECT_EQ(r.getU16(), 0xBEEF);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getI32(), -7);
    EXPECT_EQ(r.getF64(), 2.718281828459045);
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getString(), "tenant-a");
    r.finish();
}

// ------------------------------------------------------------------- §3

TEST(WireParams, RoundTripAndHashAcrossAllPresets)
{
    // Every preset in the repo, including the accelerator-scale
    // Table III sets (params round-trip needs no context, so the big
    // sets cost nothing here).
    const std::vector<CkksParams> presets = {
        CkksParams::ark(),      CkksParams::lattigo(),
        CkksParams::hundredX(), CkksParams::f1(),
        CkksParams::testTiny(), CkksParams::testSmall(),
        CkksParams::testBoot(),
    };
    std::vector<u64> hashes;
    for (const CkksParams &p : presets) {
        ByteWriter w;
        writeParams(w, p);
        ByteReader r(w.bytes());
        const CkksParams q = readParams(r);
        r.finish();
        EXPECT_EQ(q.name, p.name);
        EXPECT_EQ(q.degree, p.degree);
        EXPECT_EQ(q.num_slots, p.num_slots);
        EXPECT_EQ(q.max_level, p.max_level);
        EXPECT_EQ(q.dnum, p.dnum);
        EXPECT_EQ(q.log_q0, p.log_q0);
        EXPECT_EQ(q.log_scale, p.log_scale);
        EXPECT_EQ(q.log_special, p.log_special);
        EXPECT_EQ(q.word_bytes, p.word_bytes);
        EXPECT_EQ(q.hamming_weight, p.hamming_weight);
        EXPECT_EQ(q.boot_levels, p.boot_levels);
        EXPECT_EQ(paramsHash(q), paramsHash(p));
        hashes.push_back(paramsHash(p));
    }
    // All presets hash distinctly.
    for (size_t i = 0; i < hashes.size(); ++i) {
        for (size_t j = i + 1; j < hashes.size(); ++j)
            EXPECT_NE(hashes[i], hashes[j])
                << presets[i].name << " vs " << presets[j].name;
    }
}

TEST(WireParams, HashIgnoresHostLocalKnobs)
{
    // §3: the hash binds the SCHEME, not how a host executes it.
    CkksParams p = CkksParams::testTiny();
    const u64 h = paramsHash(p);
    p.name = "renamed";
    p.backend = BackendKind::Parallel;
    p.backend_threads = 7;
    EXPECT_EQ(paramsHash(p), h);
    p.log_scale += 1;
    EXPECT_NE(paramsHash(p), h);
}

TEST(WireParams, RejectsDegenerateShapes)
{
    CkksParams p = CkksParams::testTiny();
    ByteWriter w;
    writeParams(w, p);
    std::vector<u8> body = w.bytes();
    // degree is the first numeric field after the name
    // (u32 len + bytes): corrupt it to a non-power-of-two.
    const size_t degree_off = 4 + p.name.size();
    body[degree_off] = 3;
    ByteReader r(body);
    try {
        (void)readParams(r);
        FAIL() << "degenerate degree accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::BadField);
    }
}

// ---------------------------------------------------- §5.7/§5.11 payloads

/** Round-trip the ciphertext and evaluation-key bodies at one preset. */
void
roundTripPayloads(CkksParams params)
{
    CkksContext ctx(params);
    Rng rng(2026);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    std::vector<Complex> msg(params.num_slots);
    for (size_t i = 0; i < msg.size(); ++i)
        msg[i] = Complex(0.1 * static_cast<double>(i % 7), -0.05);
    const Plaintext pt = encoder.encode(msg, ctx.maxLevel());
    const Ciphertext ct = encryptor.encryptSymmetric(pt, sk);

    {
        ByteWriter w;
        writeCiphertext(w, ct);
        ByteReader r(w.bytes());
        const Ciphertext back = readCiphertext(r, ctx);
        r.finish();
        EXPECT_EQ(back.scale, ct.scale);
        EXPECT_EQ(back.slots, ct.slots);
        EXPECT_TRUE(polyEq(back.b, ct.b));
        EXPECT_TRUE(polyEq(back.a, ct.a));
    }
    {
        // Unseeded evk round-trip.
        const EvalKey evk = keygen.evkMult(sk);
        ByteWriter w;
        writeEvalKey(w, EvalKeyPurpose::Multiplication, 0, evk);
        ByteReader r(w.bytes());
        const WireEvalKey back = readEvalKey(r, ctx);
        r.finish();
        EXPECT_EQ(back.purpose, EvalKeyPurpose::Multiplication);
        EXPECT_TRUE(evalKeyEq(back.key, evk));
    }
}

TEST(WirePayloads, RoundTripTestTiny)
{
    roundTripPayloads(CkksParams::testTiny());
}

TEST(WirePayloads, RoundTripTestSmall)
{
    roundTripPayloads(CkksParams::testSmall());
}

TEST(WirePayloads, RoundTripTestBoot)
{
    roundTripPayloads(CkksParams::testBoot());
}

// ------------------------------------------------- §4 golden body bytes

/**
 * Byte-at-a-time reference encoder: the original §4 `putU64` loop,
 * kept here so the bulk encoder is pinned against the plain
 * definition of the format, one shifted byte per output byte.
 */
class RefWriter
{
  public:
    void put(u64 v, int width)
    {
        for (int i = 0; i < width; ++i)
            out_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void putF64(double v)
    {
        u64 bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put(bits, 8);
    }

    void poly(const RnsPoly &p)
    {
        put(p.degree(), 4);
        put(p.numLimbs(), 2);
        put(p.rep() == Rep::Eval ? 1 : 0, 1);
        for (size_t l = 0; l < p.numLimbs(); ++l) {
            for (size_t i = 0; i < p.degree(); ++i)
                put(p.limb(l)[i], 8);
        }
    }

    void ciphertext(const Ciphertext &ct)
    {
        putF64(ct.scale);
        put(ct.slots, 4);
        poly(ct.b);
        poly(ct.a);
    }

    void evalKey(u64 galois_elt, const EvalKey &key)
    {
        put(static_cast<u8>(EvalKeyPurpose::Galois), 1);
        put(galois_elt, 8);
        put(key.seeded ? 1 : 0, 1);
        put(key.seeded ? key.a_seed : 0, 8);
        put(key.numDigits(), 2);
        for (const RnsPoly &b : key.b)
            poly(b);
        if (!key.seeded) {
            for (const RnsPoly &a : key.a)
                poly(a);
        }
    }

    const std::vector<u8> &bytes() const { return out_; }

  private:
    std::vector<u8> out_;
};

/** FNV-1a 64 over @p bytes (the §3 hash function). */
u64
fnv1a(const std::vector<u8> &bytes)
{
    u64 h = 1469598103934665603ull;
    for (u8 b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** Every payload encoder against RefWriter at one preset. */
void
bodiesMatchReference(CkksParams params)
{
    CkksContext ctx(params);
    Rng rng(2026);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    std::vector<Complex> msg(params.num_slots);
    for (size_t i = 0; i < msg.size(); ++i)
        msg[i] = Complex(0.1 * static_cast<double>(i % 7), -0.05);
    const Plaintext pt = encoder.encode(msg, ctx.maxLevel());
    const Ciphertext ct = encryptor.encryptSymmetric(pt, sk);

    const auto expectSame = [](const ByteWriter &w, const RefWriter &ref,
                               const char *what) {
        EXPECT_EQ(w.bytes(), ref.bytes()) << what;
    };
    {
        ByteWriter w;
        RefWriter ref;
        writePoly(w, ct.a);
        ref.poly(ct.a);
        expectSame(w, ref, "poly");
    }
    {
        ByteWriter w;
        RefWriter ref;
        writeCiphertext(w, ct);
        ref.ciphertext(ct);
        expectSame(w, ref, "ciphertext");
    }
    const u64 elt = galoisElt(1, ctx.degree());
    for (const EvalKey &evk : {keygen.evkRotation(sk, 1),
                               keygen.evkRotationSeeded(sk, 1, 0xE7C)}) {
        ByteWriter w;
        RefWriter ref;
        writeEvalKey(w, EvalKeyPurpose::Galois, elt, evk);
        ref.evalKey(elt, evk);
        expectSame(w, ref, evk.seeded ? "seeded evk" : "unseeded evk");
    }
}

TEST(WireGolden, BodiesMatchByteAtATimeReferenceTestTiny)
{
    bodiesMatchReference(CkksParams::testTiny());
}

TEST(WireGolden, BodiesMatchByteAtATimeReferenceTestBoot)
{
    bodiesMatchReference(CkksParams::testBoot());
}

TEST(WireGolden, FixedSeedCiphertextBodyHash)
{
    // A zero message keeps the encoder's floating point out of the
    // words: the body depends only on the integer key and error
    // sampling of the fixed seed, so this literal holds on any host.
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(2026);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    const Ciphertext ct = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(params.num_slots),
                       ctx.maxLevel()),
        sk);
    ByteWriter w;
    writeCiphertext(w, ct);
    EXPECT_EQ(fnv1a(w.bytes()), 0x99B5B1B6BAA40C5Dull);
}

TEST(WirePayloads, RejectsCorruptedShapeFields)
{
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(11);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    const Plaintext pt = encoder.encode(
        std::vector<Complex>(params.num_slots, Complex(0.5, 0)),
        ctx.maxLevel());
    const Ciphertext ct = encryptor.encryptSymmetric(pt, sk);

    ByteWriter w;
    writeCiphertext(w, ct);
    const std::vector<u8> good = w.bytes();

    const auto expectBad = [&](std::vector<u8> body,
                               const char *what) {
        ByteReader r(body);
        try {
            (void)readCiphertext(r, ctx);
            FAIL() << what << " accepted";
        } catch (const WireError &e) {
            EXPECT_EQ(e.code(), WireCode::BadField) << what;
        }
    };

    // Body layout: f64 scale, u32 slots, then poly b whose first
    // fields are u32 degree, u16 limbs, u8 rep.
    std::vector<u8> bad = good;
    bad[12] ^= 0xFF; // degree of poly b
    expectBad(std::move(bad), "corrupted degree");

    bad = good;
    bad[16] = 0xFF; // limb count beyond max_level+1
    expectBad(std::move(bad), "corrupted limb count");

    bad = good;
    bad[18] = 2; // rep flag outside {0, 1}
    expectBad(std::move(bad), "corrupted rep flag");

    bad = good;
    bad[8] = 0;
    bad[9] = 0;
    bad[10] = 0;
    bad[11] = 0; // zero slots
    expectBad(std::move(bad), "zero slot count");

    // Truncated body: the poly word reads are bounds-checked.
    ByteReader r(good.data(), good.size() - 8);
    try {
        (void)readCiphertext(r, ctx);
        FAIL() << "truncated ciphertext accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::TruncatedFrame);
    }

    // Trailing garbage after a valid body.
    std::vector<u8> padded = good;
    padded.push_back(0x00);
    ByteReader r2(padded);
    (void)readCiphertext(r2, ctx);
    try {
        r2.finish();
        FAIL() << "trailing bytes accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::TrailingBytes);
    }
}

// ------------------------------------------------------------------- §6

TEST(WireSeedCompression, EvkReExpandsBitIdentical)
{
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(404);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();

    const u64 seed = 0xA5EED5EEDull;
    const EvalKey evk = keygen.evkMultSeeded(sk, seed);
    ASSERT_TRUE(evk.seeded);

    // The seeded generator's a halves ARE the canonical expansion —
    // the normative §6 contract both keygen and the wire reader share.
    const std::vector<RnsPoly> expanded = expandSeededEvkA(ctx, seed);
    ASSERT_EQ(expanded.size(), evk.numDigits());
    for (size_t d = 0; d < expanded.size(); ++d)
        EXPECT_TRUE(polyEq(expanded[d], evk.a[d]));

    // Seed-compressed round-trip reconstructs the full key.
    ByteWriter w;
    writeEvalKey(w, EvalKeyPurpose::Multiplication, 0, evk);
    ByteReader r(w.bytes());
    const WireEvalKey back = readEvalKey(r, ctx);
    r.finish();
    EXPECT_TRUE(back.key.seeded);
    EXPECT_EQ(back.key.a_seed, seed);
    EXPECT_TRUE(evalKeyEq(back.key, evk));
}

TEST(WireSeedCompression, SeededFramesAreAtLeastHalfSmaller)
{
    // The acceptance bar: seed-compressed key frames >= 1.9x smaller
    // than their unseeded serialization.
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(505);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();

    const EvalKey evk_plain = keygen.evkMult(sk);
    const EvalKey evk_seeded = keygen.evkMultSeeded(sk, 99);
    ByteWriter wp, ws;
    writeEvalKey(wp, EvalKeyPurpose::Multiplication, 0, evk_plain);
    writeEvalKey(ws, EvalKeyPurpose::Multiplication, 0, evk_seeded);
    EXPECT_GE(static_cast<double>(wp.size()),
              1.9 * static_cast<double>(ws.size()))
        << "unseeded evk " << wp.size() << " B vs seeded "
        << ws.size() << " B";
}

TEST(WireSeedCompression, RejectsWrongDigitCount)
{
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(707);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    const EvalKey evk = keygen.evkMultSeeded(sk, 1);

    ByteWriter w;
    writeEvalKey(w, EvalKeyPurpose::Multiplication, 0, evk);
    std::vector<u8> body = w.bytes();
    // Body layout: u8 purpose, u64 galois_elt, u8 flags, u64 seed,
    // u16 dnum at offset 18.
    body[18] = static_cast<u8>(ctx.dnum() + 1);
    ByteReader r(body);
    try {
        (void)readEvalKey(r, ctx);
        FAIL() << "wrong digit count accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::BadField);
    }
}

} // namespace
} // namespace ark
