/**
 * @file
 * Seeded byte-mutation fuzzer over every wire frame body the
 * serializer decodes (docs/wire_format.md §4-§5): params, ciphertext,
 * eval key, stats, plus the §2 frame header.
 * 10,000 mutation iterations (stdlib PRNG, fixed seed — fully
 * reproducible, no external fuzzing deps): random byte flips,
 * truncations, extensions, and length-field stomps. The contract
 * under test is §8's error discipline: a decoder presented with
 * arbitrary bytes either succeeds or throws a typed WireError —
 * never a crash, never an unbounded allocation, never any other
 * exception type. A second, targeted pass makes semantic mutations
 * that leave every body well-formed byte-wise (a residue >= its
 * limb's modulus, a NaN/infinite/non-positive scale, the Coeff rep
 * flag) and requires each to be rejected as BAD_FIELD. CI runs this
 * under ASan/UBSan and TSan, so a leak or UB on any rejection path
 * fails the build.
 */

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "wire/serializer.h"
#include "wire/stats_frame.h"

namespace ark {
namespace {

/** One fuzz target: a valid seed body plus its decoder. */
struct Target
{
    std::string name;
    std::vector<u8> seed_body;
    std::function<void(const std::vector<u8> &)> decode;
};

/** Apply one random mutation to @p body in place. */
void
mutate(std::vector<u8> &body, std::mt19937_64 &prng)
{
    const auto pick = [&](size_t n) {
        return static_cast<size_t>(prng() % n);
    };
    switch (prng() % 5) {
      case 0: // flip 1..8 random bytes
        if (!body.empty()) {
            const size_t flips = 1 + pick(8);
            for (size_t i = 0; i < flips; ++i)
                body[pick(body.size())] ^=
                    static_cast<u8>(1 + pick(255));
        }
        break;
      case 1: // truncate to a random prefix (possibly empty)
        body.resize(pick(body.size() + 1));
        break;
      case 2: { // append 1..16 random bytes
        const size_t extra = 1 + pick(16);
        for (size_t i = 0; i < extra; ++i)
            body.push_back(static_cast<u8>(prng()));
        break;
      }
      case 3: // flip + truncate
        if (!body.empty()) {
            body[pick(body.size())] ^= static_cast<u8>(1 + pick(255));
            body.resize(pick(body.size() + 1));
        }
        break;
      default: // stomp a 4-byte window (targets length/count fields)
        if (body.size() >= 4) {
            const size_t at = pick(body.size() - 3);
            const u32 v = static_cast<u32>(prng());
            for (int i = 0; i < 4; ++i)
                body[at + i] = static_cast<u8>(v >> (8 * i));
        }
        break;
    }
}

/** Run @p iterations mutations of @p t; every decode must either
 *  succeed or throw WireError. Returns the typed-rejection count. */
size_t
fuzzTarget(const Target &t, size_t iterations, u64 seed)
{
    std::mt19937_64 prng(seed);
    size_t rejected = 0;
    for (size_t i = 0; i < iterations; ++i) {
        std::vector<u8> body = t.seed_body;
        mutate(body, prng);
        try {
            t.decode(body);
        } catch (const WireError &) {
            ++rejected; // the §8 contract: typed, catchable, done
        } catch (const std::exception &e) {
            ADD_FAILURE() << t.name << " iteration " << i
                          << " threw a non-wire exception: "
                          << e.what();
            return rejected;
        }
    }
    return rejected;
}

TEST(WireFuzz, EveryBodyDecoderRejectsMutationsTyped)
{
    // Build one valid body per frame type from the usual fixed-seed
    // material, then hammer each decoder. 2250 iterations x 4 body
    // targets + 1000 header iterations = 10,000 total.
    CkksParams params = CkksParams::testTiny();
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
    const EvalKey evk = keygen.evkMultSeeded(sk, 0xF00D);

    RemoteStats stats;
    stats.uptime_ms = 1234;
    stats.queues = {{3, 16, 1, 901}, {0, 8, 2, 77}};
    stats.counters = {{"admit_accepted", 978}, {"requests_shed", 5}};
    stats.phases = {{"execute", 978, 4.25, 4.0, 9.5, 22.75}};

    std::vector<Target> targets;
    {
        ByteWriter w;
        writeParams(w, params);
        targets.push_back({"params", w.take(),
                           [](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readParams(r);
                               r.finish();
                           }});
    }
    {
        ByteWriter w;
        writeCiphertext(w, ct);
        targets.push_back({"ciphertext", w.take(),
                           [&ctx](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readCiphertext(r, ctx);
                               r.finish();
                           }});
    }
    {
        ByteWriter w;
        writeEvalKey(w, EvalKeyPurpose::Multiplication, 0, evk);
        targets.push_back({"eval_key", w.take(),
                           [&ctx](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readEvalKey(r, ctx);
                               r.finish();
                           }});
    }
    {
        ByteWriter w;
        writeStats(w, stats);
        targets.push_back({"stats", w.take(),
                           [](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readStats(r);
                               r.finish();
                           }});
    }

    const size_t kIterations = 2250;
    u64 seed = 0xA11CE;
    for (const Target &t : targets) {
        const size_t rejected = fuzzTarget(t, kIterations, seed++);
        // Mutations overwhelmingly corrupt something a validator
        // catches; a fuzzer that never rejects is not reaching the
        // decoders at all.
        EXPECT_GT(rejected, kIterations / 2) << t.name;
        if (::testing::Test::HasFailure())
            return; // one corpus dump is enough
    }
}

/** One poly inside a body: where its §4 header starts and the moduli
 *  its limbs are checked against. */
struct PolySite
{
    std::string name;
    size_t offset;
    std::vector<Modulus> moduli;
};

/** A body, its decoder, and the polys it carries. */
struct SemanticTarget
{
    std::string name;
    std::vector<u8> body;
    std::function<void(const std::vector<u8> &)> decode;
    std::vector<PolySite> polys;
    bool has_scale; ///< an f64 scale leads the body
};

/** Overwrite the LE u64 at @p at. */
void
storeU64(std::vector<u8> &body, size_t at, u64 v)
{
    for (int i = 0; i < 8; ++i)
        body[at + i] = static_cast<u8>(v >> (8 * i));
}

/** Decode @p body, which must be rejected as BAD_FIELD. */
void
expectBadField(const SemanticTarget &t, const std::vector<u8> &body,
               const std::string &what)
{
    try {
        t.decode(body);
        ADD_FAILURE() << t.name << ": " << what << " accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::BadField)
            << t.name << ": " << what << ": " << e.what();
    }
}

TEST(WireFuzz, SemanticMutationsAreBadField)
{
    // Targeted mutations a shape check cannot see: a residue word at
    // or above its limb's modulus, a scale that is not a finite
    // positive number, and the Coeff representation flag. Each keeps
    // the body well-formed byte-wise, so only the §4/§5 semantic
    // validation can reject it.
    CkksParams params = CkksParams::testTiny();
    CkksContext ctx(params);
    Rng rng(2026);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    std::vector<Complex> msg(params.num_slots, Complex(0.3, -0.1));
    const Plaintext pt = encoder.encode(msg, ctx.maxLevel());
    const Ciphertext ct = encryptor.encryptSymmetric(pt, sk);
    const EvalKey evk = keygen.evkMultSeeded(sk, 0xF00D);

    const std::vector<Modulus> &q = ctx.qModuli();
    const std::vector<Modulus> key_moduli = ctx.keyModuli(ctx.maxLevel());
    const auto polyBytes = [](const RnsPoly &p) {
        return 7 + p.byteSize();
    };

    std::vector<SemanticTarget> targets;
    {
        ByteWriter w;
        writeCiphertext(w, ct);
        // f64 scale, u32 slots, then b and a.
        targets.push_back({"ciphertext", w.take(),
                           [&ctx](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readCiphertext(r, ctx);
                               r.finish();
                           },
                           {{"b", 12, q}, {"a", 12 + polyBytes(ct.b), q}},
                           true});
    }
    {
        ByteWriter w;
        writeEvalKey(w, EvalKeyPurpose::Multiplication, 0, evk);
        // u8 purpose, u64 galois_elt, u8 flags, u64 seed, u16 dnum,
        // then the b halves over the extended basis.
        std::vector<PolySite> halves;
        size_t at = 20;
        for (size_t d = 0; d < evk.numDigits(); ++d) {
            halves.push_back({"b" + std::to_string(d), at, key_moduli});
            at += polyBytes(evk.b[d]);
        }
        targets.push_back({"eval_key", w.take(),
                           [&ctx](const std::vector<u8> &b) {
                               ByteReader r(b);
                               (void)readEvalKey(r, ctx);
                               r.finish();
                           },
                           halves, false});
    }

    const size_t n = ctx.degree();
    size_t mutations = 0;
    for (const SemanticTarget &t : targets) {
        // The unmutated body decodes.
        EXPECT_NO_THROW(t.decode(t.body)) << t.name;

        for (const PolySite &site : t.polys) {
            const size_t words = site.offset + 7;
            const size_t limbs = t.body[site.offset + 4] |
                                 (t.body[site.offset + 5] << 8);
            ASSERT_LE(limbs, site.moduli.size()) << t.name;
            for (const size_t l : {size_t{0}, limbs - 1}) {
                const u64 ql = site.moduli[l].value();
                for (const size_t i : {size_t{0}, n - 1}) {
                    for (const u64 v : {ql, ql + 1, ~u64{0}}) {
                        std::vector<u8> bad = t.body;
                        storeU64(bad, words + 8 * (l * n + i), v);
                        expectBadField(t, bad,
                                       site.name + " limb " +
                                           std::to_string(l) + " word " +
                                           std::to_string(i) + " = " +
                                           std::to_string(v));
                        ++mutations;
                    }
                }
            }
            std::vector<u8> coeff = t.body;
            coeff[site.offset + 6] = 0; // rep flag: Coeff
            expectBadField(t, coeff, site.name + " rep flag Coeff");
            ++mutations;
        }

        if (!t.has_scale)
            continue;
        const double inf = std::numeric_limits<double>::infinity();
        for (const double scale :
             {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0,
              -0.0, -ct.scale}) {
            std::vector<u8> bad = t.body;
            u64 bits;
            std::memcpy(&bits, &scale, sizeof(bits));
            storeU64(bad, 0, bits);
            expectBadField(t, bad, "scale " + std::to_string(scale));
            ++mutations;
        }
    }
    // 4 words x 3 values + 1 rep flag per poly site (the ciphertext's
    // two, the evk's dnum); 6 scales for the ciphertext.
    EXPECT_EQ(mutations, (2 + ctx.dnum()) * 13 + 6);
}

TEST(WireFuzz, FrameHeaderRejectsMutationsTyped)
{
    // §2 envelope: mutate a valid 24-byte header and fully random
    // headers; decodeFrameHeader must throw WireError or return a
    // well-formed FrameHeader — never anything else.
    const std::vector<u8> frame =
        encodeFrame(FrameType::Submit, 0x0123456789ABCDEFull,
                    {0xAA, 0xBB, 0xCC});
    std::mt19937_64 prng(0xBEEF);
    size_t rejected = 0;
    const size_t kIterations = 1000;
    for (size_t i = 0; i < kIterations; ++i) {
        std::vector<u8> hdr(frame.begin(),
                            frame.begin() + kWireHeaderBytes);
        if (i % 4 == 0) {
            for (u8 &b : hdr) // fully random header
                b = static_cast<u8>(prng());
        } else {
            const size_t flips = 1 + prng() % 4;
            for (size_t f = 0; f < flips; ++f)
                hdr[prng() % hdr.size()] ^=
                    static_cast<u8>(1 + prng() % 255);
        }
        try {
            const FrameHeader h =
                decodeFrameHeader(hdr.data(), kDefaultMaxFrameBytes);
            // Survivors must be internally consistent.
            EXPECT_EQ(h.version, kWireVersion);
            EXPECT_LE(h.body_len, kDefaultMaxFrameBytes);
        } catch (const WireError &) {
            ++rejected;
        } catch (const std::exception &e) {
            FAIL() << "header iteration " << i
                   << " threw a non-wire exception: " << e.what();
        }
    }
    // Random magic almost never matches "ARKW".
    EXPECT_GT(rejected, kIterations / 2);
}

} // namespace
} // namespace ark
