/**
 * @file
 * Key generation for CKKS: secret/public keys and evaluation keys for
 * multiplication, rotation (any amount), and conjugation.
 */

#pragma once

#include "ckks/context.h"
#include "ckks/keys.h"
#include "common/random.h"

namespace ark {

/**
 * Expand the uniform `a` halves of a seed-compressed evaluation key:
 * one poly per key-switching digit over the extended basis, drawn
 * from a fresh Rng(@p seed) in digit-major, limb-major order. This is
 * the NORMATIVE expansion of docs/wire_format.md §6 — the wire reader
 * and the seeded keygen variants below must stay byte-identical.
 */
std::vector<RnsPoly> expandSeededEvkA(const CkksContext &ctx, u64 seed);

/** Generates all key material from a context and a seeded RNG. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, Rng &rng);

    /** Sample a (sparse or dense) ternary secret key. */
    SecretKey secretKey();

    PublicKey publicKey(const SecretKey &sk);

    /** evk_mult: switches s^2 -> s. */
    EvalKey evkMult(const SecretKey &sk);

    /** evk_rot^(r): switches psi_r(s) -> s (rotation by r slots). */
    EvalKey evkRotation(const SecretKey &sk, i64 r);

    /** evk for an arbitrary Galois element. */
    EvalKey evkGalois(const SecretKey &sk, u64 galois_elt);

    /** evk for complex conjugation. */
    EvalKey evkConjugate(const SecretKey &sk);

    /**
     * Seed-compressible variants: the uniform `a` halves come from
     * Rng(@p a_seed) via expandSeededEvkA instead of
     * this generator's Rng (errors and payload still do), so the wire
     * layer can ship the key as seed + b halves at ~2x savings
     * (docs/wire_format.md §6). Distinct keys MUST use distinct
     * seeds; WireClient derives per-key seeds from a master seed.
     */
    EvalKey evkMultSeeded(const SecretKey &sk, u64 a_seed);
    EvalKey evkRotationSeeded(const SecretKey &sk, i64 r, u64 a_seed);
    EvalKey evkGaloisSeeded(const SecretKey &sk, u64 galois_elt,
                            u64 a_seed);

  private:
    /** Core: evk encrypting P * g_d * s_prime under s. When
     *  @p seeded_a is non-null it supplies the dnum uniform a polys
     *  (seed-expansion path); otherwise they come from this Rng. */
    EvalKey makeEvk(const SecretKey &sk, const RnsPoly &s_prime,
                    const std::vector<RnsPoly> *seeded_a = nullptr);

    /** Uniform polynomial over the extended key basis, Eval rep. */
    RnsPoly uniformKeyPoly();

    /** Error polynomial over the extended key basis, Eval rep. */
    RnsPoly errorKeyPoly();

    const CkksContext &ctx_;
    Rng &rng_;
};

} // namespace ark
