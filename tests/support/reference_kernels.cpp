#include "support/reference_kernels.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace ark::ref {

namespace {

/**
 * x mod q by Barrett with floor(2^128 / q), finishing with a
 * compare-and-subtract loop on the full 128-bit remainder estimate
 * (Modulus::reduce does the same correction in one word).
 */
u64
reduceReference(const Modulus &q, u128 x)
{
    const u64 b_lo = q.barrettLo();
    const u64 b_hi = q.barrettHi();
    u64 x_lo = static_cast<u64>(x);
    u64 x_hi = static_cast<u64>(x >> 64);
    u128 lo_lo = static_cast<u128>(x_lo) * b_lo;
    u128 lo_hi = static_cast<u128>(x_lo) * b_hi;
    u128 hi_lo = static_cast<u128>(x_hi) * b_lo;
    u128 hi_hi = static_cast<u128>(x_hi) * b_hi;
    u128 mid = (lo_lo >> 64) + static_cast<u64>(lo_hi) +
               static_cast<u64>(hi_lo);
    u128 q_est = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
    u128 r = x - q_est * q.value();
    while (r >= q.value())
        r -= q.value();
    return static_cast<u64>(r);
}

} // namespace

void
nttForwardStrict(const NttTables &tables, u64 *a)
{
    const Modulus &m = tables.modulus();
    const u64 q = m.value();
    const size_t n = tables.degree();
    const std::vector<u64> &roots = tables.rootPowers();
    const std::vector<u64> &roots_shoup = tables.rootPowersShoup();
    size_t t = n;
    for (size_t h = 1; h < n; h <<= 1) {
        t >>= 1;
        for (size_t i = 0; i < h; ++i) {
            const size_t j1 = 2 * i * t;
            const u64 w = roots[h + i];
            const u64 ws = roots_shoup[h + i];
            for (size_t j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = m.mulShoup(a[j + t], w, ws);
                a[j] = addMod(x, y, q);
                a[j + t] = subMod(x, y, q);
            }
        }
    }
}

void
nttInverseStrict(const NttTables &tables, u64 *a)
{
    const Modulus &m = tables.modulus();
    const u64 q = m.value();
    const size_t n = tables.degree();
    const std::vector<u64> &roots = tables.invRootPowers();
    const std::vector<u64> &roots_shoup = tables.invRootPowersShoup();
    size_t t = 1;
    for (size_t h2 = n; h2 > 1; h2 >>= 1) {
        const size_t h = h2 >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            const u64 w = roots[h + i];
            const u64 ws = roots_shoup[h + i];
            for (size_t j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = a[j + t];
                a[j] = addMod(x, y, q);
                a[j + t] = m.mulShoup(subMod(x, y, q), w, ws);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (size_t j = 0; j < n; ++j)
        a[j] = m.mulShoup(a[j], tables.nInv(), tables.nInvShoup());
}

RnsPoly
bconvTwoStage(const BaseConverter &bc, const RnsPoly &in)
{
    ARK_ASSERT(in.rep() == Rep::Coeff, "BConv needs Coeff rep");
    ARK_ASSERT(in.numLimbs() == bc.inBase().size(),
               "input limb count must match input base");
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t n = in.degree();

    RnsPoly scaled(n, nb, Rep::Coeff);
    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = bc.inBase()[j];
        const u64 s = bc.phatInvModP(j);
        const u64 ss = bc.phatInvModPShoup(j);
        const u64 *src = in.limb(j);
        u64 *dst = scaled.limb(j);
        for (size_t c = 0; c < n; ++c)
            dst[c] = pj.mulShoup(src[c], s, ss);
    }

    RnsPoly out(n, nc, Rep::Coeff);
    for (size_t i = 0; i < nc; ++i) {
        const Modulus &qi = bc.outBase()[i];
        u64 *dst = out.limb(i);
        for (size_t c = 0; c < n; ++c) {
            u128 acc = 0;
            // y < p_j may exceed q_i; the MAC multiplies raw words and
            // the final reduction handles the excess.
            for (size_t j = 0; j < nb; ++j)
                acc += static_cast<u128>(scaled.limb(j)[c]) *
                       bc.baseTable(i, j);
            dst[c] = reduceReference(qi, acc);
        }
    }
    return out;
}

std::vector<Complex>
slotMatrixApply(const SlotMatrix &m, const std::vector<Complex> &v)
{
    ARK_ASSERT(v.size() == m.n, "vector size mismatch");
    std::vector<Complex> out(m.n, Complex(0, 0));
    for (size_t r = 0; r < m.n; ++r) {
        for (size_t c = 0; c < m.n; ++c)
            out[r] += m.at(r, c) * v[c];
    }
    return out;
}

SlotMatrix
slotMatrixMultiply(const SlotMatrix &a, const SlotMatrix &b)
{
    ARK_ASSERT(a.n == b.n, "matrix size mismatch");
    const size_t n = a.n;
    SlotMatrix out;
    out.n = n;
    out.data.assign(n * n, Complex(0, 0));
    for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < n; ++k) {
            Complex v = a.at(r, k);
            if (std::abs(v) == 0.0)
                continue;
            for (size_t c = 0; c < n; ++c)
                out.at(r, c) += v * b.at(k, c);
        }
    }
    return out;
}

} // namespace ark::ref
