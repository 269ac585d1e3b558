/**
 * @file
 * Full CKKS bootstrapping on the real library: exhaust the level
 * budget with squarings, refresh with bootstrap() (Min-KS schedule,
 * OF-Limb plaintexts), and keep computing — with a precision report.
 * Ends by projecting the kernels a bootstrap executed onto the ARK
 * machine model, next to the model's own bootstrap trace.
 */

#include <cmath>
#include <cstdio>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "core/traffic_analyzer.h"
#include "sim/simulator.h"
#include "workloads/programs.h"

using namespace ark;

int
main()
{
    CkksParams params = CkksParams::testBoot();
    CkksContext ctx(params);
    Rng rng(7);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor(ctx, rng);
    CkksDecryptor decryptor(ctx, sk);
    CkksEvaluator eval(ctx);
    KeyCache keys(keygen, sk, ctx.degree());

    BootConfig cfg; // Min-KS + OF-Limb by default
    Bootstrapper boot(ctx, encoder, cfg);

    std::printf("parameters: N=%zu, L=%d, dnum=%d, n=%zu slots\n",
                params.degree, params.max_level, params.dnum,
                params.num_slots);
    std::printf("bootstrap consumes %d levels, returns at level %d\n",
                boot.bootLevels(), boot.outputLevel());

    // Encrypt at level 0 (as if a computation had consumed everything).
    std::vector<Complex> m(params.num_slots);
    Rng mrng(99);
    for (auto &v : m)
        v = Complex(mrng.uniformReal() - 0.5, mrng.uniformReal() - 0.5);
    const double delta0 =
        static_cast<double>(ctx.qModuli()[0].value()) / cfg.msg_ratio;
    auto ct = encryptor.encryptSymmetric(encoder.encode(m, 0, delta0),
                                         sk);
    ct.slots = params.num_slots;
    std::printf("\nciphertext at level %d: no multiplications left\n",
                ct.level());

    BootStats stats;
    auto refreshed = boot.bootstrap(eval, ct, keys, &stats);
    std::printf("bootstrapped to level %d (H-IDFT %zu rotations with "
                "%zu distinct evks; H-DFT %zu PMults)\n",
                refreshed.level(), stats.hidft.rotations,
                stats.hidft.distinct_evks, stats.hdft.pmults);

    auto out = encoder.decode(decryptor.decrypt(refreshed),
                              params.num_slots);
    double max_err = 0;
    for (size_t i = 0; i < m.size(); ++i)
        max_err = std::max(max_err, std::abs(out[i] - m[i]));
    std::printf("bootstrap precision: max error %.2e (%.1f bits)\n",
                max_err, -std::log2(max_err));

    // Prove the refreshed levels are usable.
    auto sq = eval.rescale(eval.square(refreshed, keys.multiplication()));
    auto sq_out = encoder.decode(decryptor.decrypt(sq),
                                 params.num_slots);
    double sq_err = 0;
    for (size_t i = 0; i < m.size(); ++i)
        sq_err = std::max(sq_err, std::abs(sq_out[i] - m[i] * m[i]));
    std::printf("post-bootstrap squaring error: %.2e\n", sq_err);

    // Bootstrap the same input again with every key already generated,
    // so the tallies hold the bootstrap's kernels and no keygen.
    ctx.backend().resetStats();
    (void)boot.bootstrap(eval, ct, keys);
    const KernelStats measured = ctx.backend().stats();
    ArkSimulator sim(MachineConfig::arkBase(),
                     SimAlgo{cfg.schedule,
                             cfg.pt_mode == PlaintextMode::OFLimb});
    const SimResult projected = sim.runMeasured(measured, params);
    const TrafficPoint traffic =
        TrafficAnalyzer(params).analyzeMeasured(measured);
    const SimResult model =
        sim.run(bootstrapProgram(params, cfg.schedule));
    const double mib = 1024.0 * 1024.0;
    std::printf("\nARK projection (arkBase machine) of a warm bootstrap, "
                "%llu kernel calls:\n",
                static_cast<unsigned long long>(measured.totalCalls()));
    std::printf("  executed, no evk reuse: %6.1f us, evk %6.2f MiB, "
                "plaintext %5.2f MiB\n",
                projected.seconds * 1e6, traffic.evk_bytes / mib,
                traffic.plaintext_bytes / mib);
    std::printf("  modelled, evk cached:   %6.1f us, evk %6.2f MiB, "
                "plaintext %5.2f MiB\n",
                model.seconds * 1e6, model.evk_bytes / mib,
                (model.hbm_bytes - model.evk_bytes) / mib);
    return 0;
}
