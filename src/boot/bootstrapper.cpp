#include "boot/bootstrapper.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace ark {

Bootstrapper::Bootstrapper(const CkksContext &ctx,
                           const CkksEncoder &encoder, BootConfig cfg)
    : ctx_(ctx), encoder_(encoder), cfg_(cfg),
      slots_(ctx.params().num_slots)
{
    const size_t half = ctx_.degree() / 2;
    ARK_ASSERT(slots_ <= half / 2,
               "sparse bootstrapping requires n <= N/4");
    const size_t gap = half / slots_;

    // Build W numerically: column i of W is the slot vector of the
    // monomial with complexified coefficient e_{gap*i}; computing it
    // through the encoder's own FFT keeps the matrices consistent with
    // the encoding convention by construction.
    SlotMatrix w;
    w.n = slots_;
    w.data.assign(slots_ * slots_, Complex(0, 0));
    for (size_t i = 0; i < slots_; ++i) {
        std::vector<Complex> vals(half, Complex(0, 0));
        vals[gap * i] = Complex(1, 0);
        encoder_.fftSpecial(vals);
        for (size_t j = 0; j < slots_; ++j)
            w.at(j, i) = vals[j];
    }

    SlotMatrix w_inv = w.inverse();
    // CoeffToSlot evaluates W^-1 / 2 (the 1/2 pre-pays the conjugate
    // split u = t' + conj(t')); SlotToCoeff evaluates W * (2n/N) to
    // undo the SubSum replication factor.
    for (auto &v : w_inv.data)
        v *= 0.5;
    const double subsum_factor =
        2.0 * static_cast<double>(slots_) /
        static_cast<double>(ctx_.degree());
    SlotMatrix w_fwd = w;
    for (auto &v : w_fwd.data)
        v *= subsum_factor;

    coeff_to_slot_ = std::make_unique<LinearTransform>(
        ctx_, encoder_, w_inv, 1, cfg_.pt_mode);
    slot_to_coeff_ = std::make_unique<LinearTransform>(
        ctx_, encoder_, w_fwd, 1, cfg_.pt_mode);
}

int
Bootstrapper::outputLevel() const
{
    return ctx_.maxLevel() - bootLevels();
}

Ciphertext
Bootstrapper::bootstrap(const CkksEvaluator &eval, const Ciphertext &ct,
                        KeyCache &keys, BootStats *stats) const
{
    ARK_ASSERT(ct.level() == 0, "bootstrap expects a level-0 ciphertext");
    ARK_ASSERT(ct.slots == slots_, "slot count mismatch");
    const u64 q0 = ctx_.qModuli()[0].value();
    const double delta0 = ct.scale;

    // --- LevelRecover: ModRaise + SubSum -------------------------------
    Ciphertext raised = eval.modRaise(ct);

    // SubSum folds the plaintext onto the sparse (period-n) subspace:
    // summing rotations by n, 2n, 4n, ... N/4 multiplies the replicated
    // message by N/(2n) and projects the q0*I term.
    const size_t half = ctx_.degree() / 2;
    size_t sub_rot = 0;
    for (size_t amt = slots_; amt < half; amt <<= 1) {
        auto rot = eval.rotate(raised, static_cast<i64>(amt),
                               keys.rotation(static_cast<i64>(amt)));
        raised = eval.add(raised, rot);
        ++sub_rot;
    }
    if (stats)
        stats->subsum_rotations = sub_rot;

    // --- Homomorphic IDFT (CoeffToSlot) --------------------------------
    Ciphertext t_half = coeff_to_slot_->apply(
        eval, raised, cfg_.schedule, keys,
        stats ? &stats->hidft : nullptr);

    // Conjugate split: u = t' + conj(t'), v = i*(conj(t') - t').
    Ciphertext t_conj = eval.conjugate(t_half, keys.conjugation());
    Ciphertext u = eval.add(t_half, t_conj);
    Ciphertext v = eval.mulByI(eval.sub(t_conj, t_half));

    // --- EvalMod on the real and imaginary coefficient parts -----------
    // The q0/Delta0 message ratio rides in the angle constant; every
    // EvalMod intermediate stays at scale ~Delta. The ratio also
    // bounds the precision amplification of the final relabel, so
    // bootstrap inputs should be encoded with Delta0 close to q0
    // (q0/Delta0 = 2^8 in the test parameters).
    const double ratio_inv = delta0 / static_cast<double>(q0);
    const EvalKey &evk_mult = keys.multiplication();
    Ciphertext mu = evalMod(eval, u, evk_mult, cfg_.evalmod, ratio_inv);
    Ciphertext mv = evalMod(eval, v, evk_mult, cfg_.evalmod, ratio_inv);
    if (stats)
        stats->evalmod_mults =
            2 * static_cast<size_t>(evalModMults(cfg_.evalmod));

    // EvalMod returned values on the /q0 scale; relabel to /Delta0.
    mu.scale *= ratio_inv;
    mv.scale *= ratio_inv;

    // Recombine t = Im(mu) + i*Im(mv): EvalMod's results are complex
    // exponentials whose imaginary parts carry the coefficient parts.
    // With a = mv - i*mu and b = -(mv + i*mu), a + conj(b) = 2*t, so
    // one conjugation serves both parts; the /2 is a scale relabel.
    Ciphertext i_mu = eval.mulByI(mu);
    Ciphertext t = eval.sub(
        eval.sub(mv, i_mu),
        eval.conjugate(eval.add(mv, i_mu), keys.conjugation()));
    t.scale *= 2.0;

    // --- Homomorphic DFT (SlotToCoeff) ----------------------------------
    Ciphertext out = slot_to_coeff_->apply(
        eval, t, cfg_.schedule, keys, stats ? &stats->hdft : nullptr);
    out.slots = slots_;
    return out;
}

} // namespace ark
