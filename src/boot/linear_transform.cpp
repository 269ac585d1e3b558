#include "boot/linear_transform.h"

#include <cmath>
#include <set>

#include "common/logging.h"
#include "rns/backend.h"

namespace ark {

SlotMatrix
SlotMatrix::identity(size_t n)
{
    SlotMatrix m;
    m.n = n;
    m.data.assign(n * n, Complex(0, 0));
    for (size_t i = 0; i < n; ++i)
        m.at(i, i) = Complex(1, 0);
    return m;
}

SlotMatrix
SlotMatrix::inverse() const
{
    // Gauss-Jordan with partial pivoting; matrices here are tiny
    // (n <= a few hundred) and well-conditioned DFT factors.
    SlotMatrix a = *this;
    SlotMatrix inv = identity(n);
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r) {
            if (std::abs(a.at(r, col)) > std::abs(a.at(pivot, col)))
                pivot = r;
        }
        ARK_ASSERT(std::abs(a.at(pivot, col)) > 1e-12,
                   "singular slot matrix");
        if (pivot != col) {
            for (size_t c = 0; c < n; ++c) {
                std::swap(a.at(col, c), a.at(pivot, c));
                std::swap(inv.at(col, c), inv.at(pivot, c));
            }
        }
        Complex d = a.at(col, col);
        for (size_t c = 0; c < n; ++c) {
            a.at(col, c) /= d;
            inv.at(col, c) /= d;
        }
        for (size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            Complex f = a.at(r, col);
            if (std::abs(f) == 0.0)
                continue;
            for (size_t c = 0; c < n; ++c) {
                a.at(r, c) -= f * a.at(col, c);
                inv.at(r, c) -= f * inv.at(col, c);
            }
        }
    }
    return inv;
}

std::vector<Complex>
SlotMatrix::apply(const std::vector<Complex> &v) const
{
    ARK_ASSERT(v.size() == n, "vector size mismatch");
    std::vector<Complex> out(n, Complex(0, 0));
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < n; ++c)
            out[r] += at(r, c) * v[c];
    }
    return out;
}

SlotMatrix
SlotMatrix::multiply(const SlotMatrix &o) const
{
    ARK_ASSERT(n == o.n, "matrix size mismatch");
    SlotMatrix out;
    out.n = n;
    out.data.assign(n * n, Complex(0, 0));
    for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < n; ++k) {
            Complex v = at(r, k);
            if (std::abs(v) == 0.0)
                continue;
            for (size_t c = 0; c < n; ++c)
                out.at(r, c) += v * o.at(k, c);
        }
    }
    return out;
}

LinearTransform::LinearTransform(const CkksContext &ctx,
                                 const CkksEncoder &encoder,
                                 const SlotMatrix &m, size_t diag_stride,
                                 PlaintextMode pt_mode, double scale)
    : ctx_(ctx), n_(m.n), stride_(diag_stride),
      scale_(scale == 0 ? ctx.params().scale() : scale),
      store_(ctx, pt_mode)
{
    ARK_ASSERT(n_ % stride_ == 0, "stride must divide slot count");
    const size_t n_u = n_ / stride_; // diagonal grid size
    bs_ = static_cast<size_t>(std::ceil(std::sqrt(
        static_cast<double>(n_u))));
    gs_ = (n_u + bs_ - 1) / bs_;

    // Verify the matrix has no mass off the stride grid.
    if (stride_ > 1) {
        for (size_t r = 0; r < n_; ++r) {
            for (size_t c = 0; c < n_; ++c) {
                size_t d = (c + n_ - r) % n_;
                if (d % stride_ != 0)
                    ARK_ASSERT(std::abs(m.at(r, c)) < 1e-12,
                               "matrix entry off the diagonal stride");
            }
        }
    }

    // Pre-rotated diagonals w_{j,i}[s] = diag_D[(s - G) mod n] with
    // D = (j*bs + i) * stride and G = j*bs*stride.
    nonzero_.assign(bs_ * gs_, false);
    for (size_t j = 0; j < gs_; ++j) {
        const size_t g_amt = j * bs_ * stride_;
        for (size_t i = 0; i < bs_; ++i) {
            const size_t u = j * bs_ + i;
            std::vector<Complex> w(n_, Complex(0, 0));
            double mag = 0;
            if (u < n_u) {
                const size_t d = u * stride_;
                for (size_t s = 0; s < n_; ++s) {
                    size_t t = (s + n_ - g_amt) % n_;
                    Complex v = m.at(t, (t + d) % n_);
                    w[s] = v;
                    mag = std::max(mag, std::abs(v));
                }
            }
            nonzero_[j * bs_ + i] = mag > 1e-12;
            // Insert a placeholder even for zero diagonals to keep
            // indices aligned (zero diagonals are never fetched).
            store_.insert(encoder.encode(w, ctx_.maxLevel(), scale_));
        }
    }
}

Ciphertext
LinearTransform::apply(const CkksEvaluator &eval, const Ciphertext &ct,
                       KeySchedule sched, KeyCache &keys,
                       LtStats *stats) const
{
    ARK_ASSERT(ct.slots == n_, "slot count mismatch");
    switch (sched) {
      case KeySchedule::Baseline:
        return applyBaseline(eval, ct, keys, stats);
      case KeySchedule::MinKS:
        return applyIterative(eval, ct, sched, keys, stats);
      case KeySchedule::MinimalKS:
        // The Halevi-Shoup intermediate schedule differs from Min-KS
        // only in the pre-rotation bookkeeping of the chained H-IDFT;
        // its functional behaviour here is identical, and its evk
        // accounting is handled by the analytical model in src/core.
        return applyIterative(eval, ct, sched, keys, stats);
    }
    ARK_PANIC("unreachable");
}

std::optional<Ciphertext>
LinearTransform::innerSum(const std::vector<const Ciphertext *> &babies,
                          size_t j, size_t &pmults) const
{
    std::vector<PlainMulTerm> terms;
    for (size_t i = 0; i < bs_; ++i) {
        if (nonzero_[j * bs_ + i])
            terms.push_back({&babies[i]->b, &babies[i]->a,
                             &store_.stored(j * bs_ + i)});
    }
    if (terms.empty())
        return std::nullopt;
    pmults += terms.size();

    // Every baby shares the input's level and scale, and every
    // diagonal was encoded at scale_.
    const Ciphertext &ct = *babies[0];
    const size_t limbs = ct.b.numLimbs();
    Ciphertext out;
    out.scale = ct.scale * scale_;
    out.slots = ct.slots;
    out.b = RnsPoly(ctx_.degree(), limbs, Rep::Eval);
    out.a = RnsPoly(ctx_.degree(), limbs, Rep::Eval);
    ctx_.backend().plainMulSum(terms, ctx_.levelModuli(ct.level()),
                               ctx_.qTablePtrs(limbs), out.b, out.a);
    return out;
}

Ciphertext
LinearTransform::applyBaseline(const CkksEvaluator &eval,
                               const Ciphertext &ct, KeyCache &keys,
                               LtStats *stats) const
{
    std::set<i64> evk_amounts;

    // Hoisted baby rotations (Halevi-Shoup hoisting is part of the
    // baseline algorithm per paper Section III-B).
    std::vector<i64> baby_amounts;
    std::vector<const EvalKey *> baby_keys;
    for (size_t i = 1; i < bs_; ++i) {
        i64 amt = static_cast<i64>(i * stride_);
        baby_amounts.push_back(amt);
        baby_keys.push_back(&keys.rotation(amt));
        evk_amounts.insert(amt);
    }
    auto rotated = eval.rotateHoisted(ct, baby_amounts, baby_keys);

    std::vector<const Ciphertext *> babies{&ct};
    for (const Ciphertext &r : rotated)
        babies.push_back(&r);

    size_t n_rot = baby_amounts.size();
    size_t n_pmult = 0;

    Ciphertext out;
    bool out_set = false;
    for (size_t j = 0; j < gs_; ++j) {
        auto inner_sum = innerSum(babies, j, n_pmult);
        if (!inner_sum)
            continue;
        Ciphertext inner = std::move(*inner_sum);
        if (j > 0) {
            i64 g_amt = static_cast<i64>(j * bs_ * stride_);
            inner = eval.rotate(inner, g_amt, keys.rotation(g_amt));
            ++n_rot;
            evk_amounts.insert(g_amt);
        }
        out = out_set ? eval.add(out, inner) : std::move(inner);
        out_set = true;
    }
    ARK_ASSERT(out_set, "transform had no nonzero diagonal");

    if (stats) {
        stats->rotations += n_rot;
        stats->pmults += n_pmult;
        stats->distinct_evks += evk_amounts.size();
    }
    return eval.rescale(out);
}

Ciphertext
LinearTransform::applyIterative(const CkksEvaluator &eval,
                                const Ciphertext &ct, KeySchedule sched,
                                KeyCache &keys, LtStats *stats) const
{
    (void)sched;
    const i64 baby_amt = static_cast<i64>(stride_);
    const i64 giant_amt = static_cast<i64>(bs_ * stride_);
    const EvalKey &evk_baby = keys.rotation(baby_amt);
    const EvalKey &evk_giant = keys.rotation(giant_amt);

    size_t n_rot = 0, n_pmult = 0;

    // Baby steps: iterate with the single stride key (Fig. 1(c), left).
    std::vector<Ciphertext> babies;
    babies.reserve(bs_);
    babies.push_back(ct);
    for (size_t i = 1; i < bs_; ++i) {
        babies.push_back(eval.rotate(babies.back(), baby_amt, evk_baby));
        ++n_rot;
    }

    std::vector<const Ciphertext *> baby_ptrs;
    for (const Ciphertext &b : babies)
        baby_ptrs.push_back(&b);
    std::vector<std::optional<Ciphertext>> inner(gs_);
    for (size_t j = 0; j < gs_; ++j)
        inner[j] = innerSum(baby_ptrs, j, n_pmult);

    // Giant steps: accumulate from the top so every rotation uses the
    // single giant key:
    //   out = inner_0 + rot_G(inner_1 + rot_G(inner_2 + ...)).
    Ciphertext acc;
    bool acc_set = false;
    for (size_t j = gs_; j-- > 0;) {
        if (acc_set) {
            acc = eval.rotate(acc, giant_amt, evk_giant);
            ++n_rot;
        }
        if (inner[j]) {
            acc = acc_set ? eval.add(acc, *inner[j])
                          : std::move(*inner[j]);
            acc_set = true;
        }
    }
    ARK_ASSERT(acc_set, "transform had no nonzero diagonal");

    if (stats) {
        stats->rotations += n_rot;
        stats->pmults += n_pmult;
        stats->distinct_evks += 2; // the Min-KS guarantee
    }
    return eval.rescale(acc);
}

} // namespace ark
