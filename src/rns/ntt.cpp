#include "rns/ntt.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace ark {

NttTables::NttTables(size_t degree, Modulus modulus)
    : n_(degree), log_n_(log2Exact(degree)), q_(modulus)
{
    ARK_ASSERT(isPowerOfTwo(degree), "NTT degree must be a power of two");
    ARK_ASSERT((q_.value() - 1) % (2 * degree) == 0,
               "prime must be 1 mod 2N for the negacyclic NTT");

    psi_ = rootOfUnity(2 * degree, q_.value());

    root_powers_.resize(n_);
    root_powers_shoup_.resize(n_);
    inv_root_powers_.resize(n_);
    inv_root_powers_shoup_.resize(n_);

    // root_powers_[i] = psi^{bitrev(i)}; the Cooley-Tukey stages index
    // this table as roots[m + i], which yields the negacyclic transform
    // with natural-order input (Longa-Naehrig / Harvey formulation).
    // inv_root_powers_[i] = (psi^{bitrev(i)})^{-1} = (psi^{-1})^{bitrev(i)},
    // so both tables come from running powers, with one inversion.
    const u64 psi_inv = q_.inv(psi_);
    std::vector<u64> psi_powers(n_), psi_inv_powers(n_);
    u64 power = 1, inv_power = 1;
    for (size_t i = 0; i < n_; ++i) {
        psi_powers[i] = power;
        psi_inv_powers[i] = inv_power;
        power = q_.mul(power, psi_);
        inv_power = q_.mul(inv_power, psi_inv);
    }
    for (size_t i = 0; i < n_; ++i) {
        const size_t r = bitReverse(i, log_n_);
        const u64 w = psi_powers[r];
        root_powers_[i] = w;
        root_powers_shoup_[i] = q_.shoupPrecompute(w);
        const u64 wi = psi_inv_powers[r];
        inv_root_powers_[i] = wi;
        inv_root_powers_shoup_[i] = q_.shoupPrecompute(wi);
    }

    n_inv_ = q_.inv(static_cast<u64>(n_) % q_.value());
    n_inv_shoup_ = q_.shoupPrecompute(n_inv_);
    last_n_inv_ = n_ > 1 ? q_.mul(inv_root_powers_[1], n_inv_) : n_inv_;
    last_n_inv_shoup_ = q_.shoupPrecompute(last_n_inv_);
}

void
NttTables::forward(u64 *a) const
{
    // Harvey lazy Cooley-Tukey: butterfly values live in [0, 4q).
    // Each butterfly folds its left input back into [0, 2q), takes the
    // Shoup product lazily in [0, 2q), and emits u + v / u - v + 2q in
    // [0, 4q) — no per-butterfly canonical correction. One
    // normalization sweep at the end restores [0, q) words, so the
    // output is bit-identical to the strict reference transform.
    const u64 two_q = q_.twoQ();
    size_t t = n_ >> 1;
    size_t m = 1;
    for (; t >= 4; m <<= 1, t >>= 1) {
        for (size_t i = 0; i < m; ++i) {
            const u64 w = root_powers_[m + i];
            const u64 ws = root_powers_shoup_[m + i];
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; ++j) {
                u64 u = x[j];
                if (u >= two_q)
                    u -= two_q;
                const u64 v = q_.mulShoupLazy(y[j], w, ws);
                x[j] = u + v;
                y[j] = u - v + two_q;
            }
        }
    }
    // Last two radix stages flattened: t == 2 works on (4i, 4i+2) /
    // (4i+1, 4i+3) and t == 1 on adjacent pairs, each a single loop
    // over i with the twiddle table read contiguously — short inner
    // loops no longer pay the per-block setup, and the straight-line
    // bodies auto-vectorize.
    if (t == 2) {
        const u64 *w = root_powers_.data() + m;
        const u64 *ws = root_powers_shoup_.data() + m;
        for (size_t i = 0; i < m; ++i) {
            u64 *x = a + 4 * i;
            for (size_t j = 0; j < 2; ++j) {
                u64 u = x[j];
                if (u >= two_q)
                    u -= two_q;
                const u64 v = q_.mulShoupLazy(x[j + 2], w[i], ws[i]);
                x[j] = u + v;
                x[j + 2] = u - v + two_q;
            }
        }
        m <<= 1;
        t = 1;
    }
    if (t == 1) {
        const u64 *w = root_powers_.data() + m;
        const u64 *ws = root_powers_shoup_.data() + m;
        for (size_t i = 0; i < m; ++i) {
            u64 u = a[2 * i];
            if (u >= two_q)
                u -= two_q;
            const u64 v = q_.mulShoupLazy(a[2 * i + 1], w[i], ws[i]);
            a[2 * i] = u + v;
            a[2 * i + 1] = u - v + two_q;
        }
    }
    for (size_t j = 0; j < n_; ++j)
        a[j] = q_.reduceLazy4q(a[j]);
}

void
NttTables::inverse(u64 *a) const
{
    // Harvey lazy Gentleman-Sande: values stay in [0, 2q) throughout
    // (x + y folds back below 2q; the Shoup product of x - y + 2q is
    // taken lazily). The final 1/N scaling pass uses the strict Shoup
    // product, which both scales and normalizes — the transform ends
    // canonical with no separate correction sweep.
    const u64 two_q = q_.twoQ();
    size_t t = 1;
    size_t m = n_;
    // First stage flattened (t == 1, adjacent pairs, contiguous
    // twiddles) for the same auto-vectorization reason as forward.
    if (m > 1) {
        const size_t h = m >> 1;
        const u64 *w = inv_root_powers_.data() + h;
        const u64 *ws = inv_root_powers_shoup_.data() + h;
        for (size_t i = 0; i < h; ++i) {
            const u64 x = a[2 * i];
            const u64 y = a[2 * i + 1];
            const u64 s = x + y;
            a[2 * i] = s >= two_q ? s - two_q : s;
            a[2 * i + 1] =
                q_.mulShoupLazy(x - y + two_q, w[i], ws[i]);
        }
        m = h;
        t = 2;
    }
    for (; m > 1; m >>= 1) {
        const size_t h = m >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            const u64 w = inv_root_powers_[h + i];
            const u64 ws = inv_root_powers_shoup_[h + i];
            u64 *x = a + j1;
            u64 *y = x + t;
            for (size_t j = 0; j < t; ++j) {
                const u64 u = x[j];
                const u64 v = y[j];
                const u64 s = u + v;
                x[j] = s >= two_q ? s - two_q : s;
                y[j] = q_.mulShoupLazy(u - v + two_q, w, ws);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (size_t j = 0; j < n_; ++j)
        a[j] = q_.mulShoup(a[j], n_inv_, n_inv_shoup_);
}

} // namespace ark
