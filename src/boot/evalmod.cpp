#include "boot/evalmod.h"

#include <cmath>

#include "common/logging.h"

namespace ark {

bool
evalModSplitsAngle(const EvalModConfig &cfg, double arg_factor)
{
    const double combined =
        2.0 * M_PI * arg_factor / std::pow(2.0, cfg.log_double_angle);
    return combined < 1.0 / (1 << 10);
}

int
evalModDepth(const EvalModConfig &cfg, double arg_factor)
{
    // angle scaling (1 or 2) + power basis up to degree d (BSGS:
    // babies 2 levels, giants up to w^12 two more) + giant product with
    // resolution headroom (2 rescales) + r squarings.
    const int angle_levels = evalModSplitsAngle(cfg, arg_factor) ? 2 : 1;
    return angle_levels + 4 + 2 + cfg.log_double_angle;
}

int
evalModMults(const EvalModConfig &cfg)
{
    // basis w^2, w^3, w^4, w^8, w^12 + one product per group j >= 1
    // with a baby term (4j + 1 <= d) + one squaring per double angle.
    return 5 + (cfg.taylor_degree - 1) / 4 + cfg.log_double_angle;
}

Ciphertext
linearCombination(const CkksEvaluator &eval,
                  const std::vector<const Ciphertext *> &cts,
                  const std::vector<double> &coeffs, double target_scale)
{
    ARK_ASSERT(cts.size() == coeffs.size(), "arity mismatch");
    Ciphertext acc;
    bool set = false;
    for (size_t i = 0; i < cts.size(); ++i) {
        if (coeffs[i] == 0.0)
            continue;
        // mulScalar(c, v, s) yields scale c.scale * s; choosing
        // s = target/operand pins every term to the same true scale.
        Ciphertext term = eval.mulScalar(*cts[i], coeffs[i],
                                         target_scale / cts[i]->scale);
        term.scale = target_scale; // remove float-product jitter
        acc = set ? eval.add(acc, term) : std::move(term);
        set = true;
    }
    ARK_ASSERT(set, "empty linear combination");
    return acc;
}

namespace {

double
invFactorial(int k)
{
    double c = 1.0;
    for (int i = 2; i <= k; ++i)
        c /= i;
    return c;
}

/**
 * sum_{k<=d} w^k / k! at scale Delta, two levels below the BSGS basis.
 * Babies w, w^2, w^3; giants w^4, w^8, w^12 (real when w = i*y, since
 * i^4 = 1). p(w) = sum_j (sum_{i=1..3} w^i / (4j+i)!) * w^{4j}
 *                + sum_{j>=1} w^{4j} / (4j)! + 1.
 */
Ciphertext
expTaylor(const CkksEvaluator &eval, const Ciphertext &w,
          const EvalKey &evk_mult, int d)
{
    const double delta = eval.context().params().scale();
    std::vector<Ciphertext> babies, giants;
    {
        Ciphertext w2 = eval.rescale(eval.square(w, evk_mult));
        Ciphertext w3 = eval.rescale(
            eval.mul(w2, eval.modDownTo(w, w2.level()), evk_mult));
        Ciphertext w4 = eval.rescale(eval.square(w2, evk_mult));
        Ciphertext w8 = eval.rescale(eval.square(w4, evk_mult));
        Ciphertext w12 = eval.rescale(
            eval.mul(w8, eval.modDownTo(w4, w8.level()), evk_mult));
        const int base_level = w12.level();
        auto at = [&](const Ciphertext &c) {
            return eval.modDownTo(c, base_level);
        };
        babies = {at(w), at(w2), at(w3)};
        giants = {at(w4), at(w8), std::move(w12)};
    }

    // Per-group inner targets are chosen as T/g_j so the giant products
    // all land on scale T. T carries one extra Delta of headroom so the
    // scalar multipliers round(c * T / (g_j * s_i)) ~ c * Delta keep
    // full resolution even for the tiny high-order coefficients; the
    // headroom is paid back with a second rescale below.
    const double t_prod = delta * delta * delta;
    Ciphertext acc;
    bool acc_set = false;
    auto accumulate = [&](Ciphertext term) {
        acc = acc_set ? eval.add(acc, term) : std::move(term);
        acc_set = true;
    };
    for (int j = 0; j * 4 <= d; ++j) {
        const Ciphertext *giant = j == 0 ? nullptr : &giants[j - 1];
        // The i = 0 term w^{4j} / (4j)! is linear in the giant.
        if (giant)
            accumulate(linearCombination(eval, {giant},
                                         {invFactorial(4 * j)}, t_prod));
        std::vector<const Ciphertext *> terms;
        std::vector<double> cs;
        for (int i = 1; i < 4 && 4 * j + i <= d; ++i) {
            terms.push_back(&babies[i - 1]);
            cs.push_back(invFactorial(4 * j + i));
        }
        if (terms.empty())
            continue;
        Ciphertext inner = linearCombination(
            eval, terms, cs, giant ? t_prod / giant->scale : t_prod);
        if (giant) {
            inner = eval.mul(inner, *giant, evk_mult);
            inner.scale = t_prod;
        }
        accumulate(std::move(inner));
    }
    return eval.addScalar(eval.rescale(eval.rescale(acc)), 1.0);
}

} // namespace

Ciphertext
evalMod(const CkksEvaluator &eval, const Ciphertext &ct,
        const EvalKey &evk_mult, const EvalModConfig &cfg,
        double arg_factor)
{
    const auto &ctx = eval.context();
    const double delta = ctx.params().scale();
    const int d = cfg.taylor_degree;
    ARK_ASSERT(d >= 3 && d <= 15, "taylor degree out of supported range");
    const int r = cfg.log_double_angle;

    // Scalar multiply pinning the post-rescale scale to @p tgt exactly.
    // Keeping every intermediate at scale ~Delta is what makes the
    // squaring iteration a stable fixed point (scale evolves as
    // s -> s^2 / q, which diverges unless s ~ q).
    auto mul_to_scale = [&](const Ciphertext &in, double value,
                            double tgt) {
        const Modulus &q_top = ctx.qModuli()[in.level()];
        double s_param =
            tgt * static_cast<double>(q_top.value()) / in.scale;
        Ciphertext out = eval.rescale(eval.mulScalar(in, value, s_param));
        out.scale = tgt;
        return out;
    };

    // (1) y = 2*pi*x*arg_factor / 2^r. When the combined constant is
    // too small for single-multiplier resolution (arg_factor carries
    // the q0/Delta0 message ratio of bootstrapping), split it over two
    // scalar multiplications so each multiplier stays large.
    auto scaled_angle = [&] {
        const double combined =
            2.0 * M_PI * arg_factor / std::pow(2.0, r);
        if (combined >= 1.0 / (1 << 10))
            return mul_to_scale(ct, combined, delta);
        int k = 0;
        double c1 = combined;
        while (c1 < 0.25) {
            c1 *= 2.0;
            ++k;
        }
        return mul_to_scale(mul_to_scale(ct, c1, delta), std::pow(2.0, -k),
                            delta);
    };

    // (2) exp(i*y) as the Taylor sum of exp(w), w = i*y (mulByI is a
    // free monomial shift).
    Ciphertext z =
        expTaylor(eval, eval.mulByI(scaled_angle()), evk_mult, d);

    // (3) r squarings, exp(i*2a) = exp(i*a)^2; one level each.
    for (int step = 0; step < r; ++step)
        z = eval.rescale(eval.square(z, evk_mult));

    // Fold the 1/(2*pi) into the scale: message' = exp(2*pi*i*x)/(2*pi),
    // whose imaginary part sin(2*pi*x)/(2*pi) is ~ x mod 1.
    z.scale *= 2.0 * M_PI;
    return z;
}

} // namespace ark
