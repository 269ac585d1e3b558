#include "wire/serializer.h"

#include <cmath>

#include "ckks/keygen.h"

namespace ark {

namespace {

/** FNV-1a 64 over a byte buffer (§3). */
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

/** The §3 hash preimage: the numeric tail of the §5.3 PARAMS body. */
void
writeParamsNumeric(ByteWriter &w, const CkksParams &p)
{
    w.putU32(static_cast<u32>(p.degree));
    w.putU32(static_cast<u32>(p.num_slots));
    w.putI32(p.max_level);
    w.putI32(p.dnum);
    w.putI32(p.log_q0);
    w.putI32(p.log_scale);
    w.putI32(p.log_special);
    w.putU32(static_cast<u32>(p.word_bytes));
    w.putU32(static_cast<u32>(p.hamming_weight));
    w.putI32(p.boot_levels);
}

[[noreturn]] void
badField(const std::string &what)
{
    throw WireError(WireCode::BadField, what);
}

/** §4: bytes of one encoded poly (shape fields + words). */
size_t
polyWireBytes(const RnsPoly &p)
{
    return sizeof(u32) + sizeof(u16) + sizeof(u8) + p.byteSize();
}

} // namespace

u64
paramsHash(const CkksParams &p)
{
    ByteWriter w;
    writeParamsNumeric(w, p);
    return fnv1a(w.bytes());
}

void
writeParams(ByteWriter &w, const CkksParams &p)
{
    w.putString(p.name);
    writeParamsNumeric(w, p);
}

CkksParams
readParams(ByteReader &r)
{
    CkksParams p;
    p.name = r.getString();
    p.degree = r.getU32();
    p.num_slots = r.getU32();
    p.max_level = r.getI32();
    p.dnum = r.getI32();
    p.log_q0 = r.getI32();
    p.log_scale = r.getI32();
    p.log_special = r.getI32();
    p.word_bytes = r.getU32();
    p.hamming_weight = r.getU32();
    p.boot_levels = r.getI32();
    // Shape sanity so a corrupted PARAMS frame cannot seed a context
    // with degenerate values (execution knobs stay receiver-local).
    if (p.degree == 0 || (p.degree & (p.degree - 1)) != 0)
        badField("params degree must be a nonzero power of two");
    if (p.max_level < 0 || p.dnum <= 0 ||
        (p.max_level + 1) % p.dnum != 0)
        badField("params dnum must divide max_level + 1");
    return p;
}

void
writePoly(ByteWriter &w, const RnsPoly &p)
{
    w.reserve(polyWireBytes(p));
    w.putU32(static_cast<u32>(p.degree()));
    w.putU16(static_cast<u16>(p.numLimbs()));
    w.putU8(p.rep() == Rep::Eval ? 1 : 0);
    // The limbs are contiguous rows, so §4's limb-major word order is
    // the poly's own memory order.
    w.putU64s(p.limb(0), p.numLimbs() * p.degree());
}

RnsPoly
readPoly(ByteReader &r, size_t expect_degree,
         const std::vector<Modulus> &moduli)
{
    const u32 degree = r.getU32();
    const u16 limbs = r.getU16();
    const u8 rep = r.getU8();
    if (degree != expect_degree)
        badField("poly degree " + std::to_string(degree) +
                 " does not match context degree " +
                 std::to_string(expect_degree));
    if (limbs == 0 || limbs > moduli.size())
        badField("poly limb count " + std::to_string(limbs) +
                 " outside [1, " + std::to_string(moduli.size()) + "]");
    if (rep != 1)
        badField("poly representation flag " + std::to_string(rep) +
                 " is not 1 (Eval)");
    RnsPoly p(degree, limbs, Rep::Eval);
    for (size_t l = 0; l < p.numLimbs(); ++l) {
        const u64 q = moduli[l].value();
        if (r.getU64s(p.limb(l), p.degree()) >= q)
            badField("poly limb " + std::to_string(l) +
                     " carries a word >= its modulus " +
                     std::to_string(q));
    }
    return p;
}

void
writeCiphertext(ByteWriter &w, const Ciphertext &ct)
{
    w.reserve(sizeof(double) + sizeof(u32) + polyWireBytes(ct.b) +
              polyWireBytes(ct.a));
    w.putF64(ct.scale);
    w.putU32(static_cast<u32>(ct.slots));
    writePoly(w, ct.b);
    writePoly(w, ct.a);
}

Ciphertext
readCiphertext(ByteReader &r, const CkksContext &ctx)
{
    Ciphertext ct;
    ct.scale = r.getF64();
    if (!(std::isfinite(ct.scale) && ct.scale > 0)) // §5.11
        badField("ciphertext scale " + std::to_string(ct.scale) +
                 " is not finite and > 0");
    ct.slots = r.getU32();
    ct.b = readPoly(r, ctx.degree(), ctx.qModuli());
    ct.a = readPoly(r, ctx.degree(), ctx.qModuli());
    if (!ct.b.sameShape(ct.a))
        badField("ciphertext b/a limb counts differ");
    if (ct.slots == 0 || ct.slots > ctx.degree() / 2)
        badField("ciphertext slot count " + std::to_string(ct.slots));
    return ct;
}

void
writeEvalKey(ByteWriter &w, EvalKeyPurpose purpose, u64 galois_elt,
             const EvalKey &key)
{
    size_t bytes = 2 * sizeof(u8) + 2 * sizeof(u64) + sizeof(u16);
    for (const RnsPoly &b : key.b)
        bytes += polyWireBytes(b);
    if (!key.seeded) {
        for (const RnsPoly &a : key.a)
            bytes += polyWireBytes(a);
    }
    w.reserve(bytes);
    w.putU8(static_cast<u8>(purpose));
    w.putU64(galois_elt);
    w.putU8(key.seeded ? 1 : 0); // §5.7 flags: bit0 = seed-compressed
    w.putU64(key.seeded ? key.a_seed : 0);
    w.putU16(static_cast<u16>(key.numDigits()));
    for (const RnsPoly &b : key.b)
        writePoly(w, b);
    if (!key.seeded) {
        for (const RnsPoly &a : key.a)
            writePoly(w, a);
    }
}

WireEvalKey
readEvalKey(ByteReader &r, const CkksContext &ctx)
{
    WireEvalKey out;
    const u8 purpose = r.getU8();
    if (purpose > static_cast<u8>(EvalKeyPurpose::Galois))
        badField("evk purpose " + std::to_string(purpose));
    out.purpose = static_cast<EvalKeyPurpose>(purpose);
    out.galois_elt = r.getU64();
    const u8 flags = r.getU8();
    if (flags > 1)
        badField("evk flags " + std::to_string(flags));
    const bool seeded = (flags & 1) != 0;
    const u64 seed = r.getU64();
    const u16 dnum = r.getU16();
    if (dnum != static_cast<u16>(ctx.dnum()))
        badField("evk digit count " + std::to_string(dnum) +
                 " does not match context dnum " +
                 std::to_string(ctx.dnum()));
    const std::vector<Modulus> key_moduli = ctx.keyModuli(ctx.maxLevel());
    const auto readHalf = [&](const char *half) {
        RnsPoly p = readPoly(r, ctx.degree(), key_moduli);
        if (p.numLimbs() != key_moduli.size())
            badField(std::string("evk ") + half +
                     " poly must span the extended basis");
        return p;
    };
    EvalKey &key = out.key;
    for (u16 d = 0; d < dnum; ++d)
        key.b.push_back(readHalf("b"));
    if (seeded) {
        // §6: the uniform halves are re-derived, never transferred.
        key.a = expandSeededEvkA(ctx, seed);
        key.a_seed = seed;
        key.seeded = true;
    } else {
        for (u16 d = 0; d < dnum; ++d)
            key.a.push_back(readHalf("a"));
    }
    return out;
}

} // namespace ark
