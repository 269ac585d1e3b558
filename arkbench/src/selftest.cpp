/**
 * @file
 * Self-test of the benchmark's own arithmetic and references:
 *
 *  - the tail rule: the highest quantile with at least ten samples
 *    beyond it, and the quantile interpolation it rests on;
 *  - the closure sums of the self-time table;
 *  - the cleartext replay of the serving op list against one request
 *    decrypted after it ran through the BatchServer, and against a
 *    deliberately wrong op list, which must not match.
 *
 * Exits 0 when every check passes. Run by `python3 arkbench/run.py
 * --self-test`.
 */

#include <cmath>
#include <cstdio>

#include "ckks/encryptor.h"
#include "layers.h"
#include "serve/batch_server.h"

using namespace arkbench;
using namespace ark;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    g_failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

void
tailRule()
{
    check(near(highestSupportedQuantile(1000), 0.99), "1000 samples support p99");
    check(tailSupported(1000, 0.99), "p99 of 1000 samples has 10 beyond it");
    check(!tailSupported(999, 0.99), "p99 of 999 samples is not supported");
    check(near(highestSupportedQuantile(20), 0.5), "20 samples support only p50");
    check(highestSupportedQuantile(10) == 0, "10 samples support no tail quantile");
    // Python: statistics.quantiles(range(1, 11), n=4, method='inclusive')
    // == [3.25, 5.5, 7.75].
    const std::vector<double> v = {7, 1, 9, 3, 5, 2, 10, 4, 8, 6};
    check(near(quantile(v, 0.25), 3.25) && near(quantile(v, 0.5), 5.5) &&
              near(quantile(v, 0.75), 7.75),
          "quantiles match the inclusive method");
    check(near(quantile(v, 0.99), 9.91), "p99 interpolates between order statistics");
    check(near(precisionBits({{1.0, 0}}, {{1.0 + std::ldexp(1.0, -10), 0}}), 10.0),
          "an error of 2^-10 is 10 bits");
}

void
closureSums()
{
    SelfTimeTable t;
    t.latency_ms = 10;
    t.rows = {{"serve", "field", 4}, {"rns", "model", 3}};
    t.close();
    check(t.rows.back().layer == "unattributed" && near(t.rows.back().ms, 3),
          "unattributed is the latency minus every other row");
    check(t.holds(), "a table whose rows fit the latency closes");
    check(near(t.share("serve") + t.share("rns") + t.share("unattributed"), 1.0),
          "shares sum to one");
    check(t.largest() == "serve", "largest row");

    SelfTimeTable over;
    over.latency_ms = 10;
    over.rows = {{"rns", "model", 11.5}};
    over.close();
    check(!over.holds(), "a row over-explaining the latency by 15% fails at 10%");

    SelfTimeTable slack;
    slack.latency_ms = 10;
    slack.rows = {{"wire", "model", 6}, {"net", "remainder", 4.5}};
    slack.close();
    check(slack.holds(), "rows over-explaining the latency by 5% together close");

    SelfTimeTable both;
    both.latency_ms = 10;
    both.rows = {{"wire", "model", 6}, {"rns", "model", 5.5}};
    both.close();
    check(!both.holds(), "rows over-explaining the latency by 15% together fail");
}

void
replayAgainstDecryptedRequest()
{
    CkksParams p = CkksParams::testSmall();
    p.backend = BackendKind::Simd;
    CkksContext ctx(p);
    Rng rng(7);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);
    CkksDecryptor decryptor(ctx, sk);
    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    const size_t slots = p.num_slots;
    const int top = ctx.maxLevel();

    std::vector<Slots> pts;
    for (u64 k = 0; k < 2; ++k) {
        pts.push_back(seededMessage(100 + k, slots, 0.9));
        store.insert(encoder.encode(pts.back(), top));
    }
    const Slots msg = seededMessage(200, slots, 0.5);
    Ciphertext input = encryptor.encryptSymmetric(encoder.encode(msg, top), sk);
    input.slots = slots;
    const ServeWorkload w = standardServingMix(p)[0];

    BatchServerConfig cfg;
    cfg.workers = 1;
    BatchServer server(ctx, keys, store, {w}, {input}, cfg);
    std::future<ServeResult> fut;
    const bool admitted =
        server.trySubmitRemote(0, std::make_shared<Ciphertext>(input), nullptr, fut) ==
        AdmitResult::Admitted;
    check(admitted, "the request is admitted");
    if (!admitted)
        return;
    const ServeResult r = fut.get();
    check(r.ok && r.output != nullptr, "the request ran and returned its output");
    if (!r.ok || r.output == nullptr)
        return;
    const Slots got = encoder.decode(decryptor.decrypt(*r.output), slots);

    const double bits = precisionBits(got, replayWorkload(w, msg, pts));
    std::printf("      replay precision %.2f bits over %zu ops\n", bits, w.ops.size());
    check(bits >= 20, "the decrypted request matches the cleartext replay");

    CkksEvaluator eval(ctx);
    check(ciphertextChecksum(executeDirect(eval, w, input, keys, store)) == r.checksum,
          "the sequential reference reproduces the request bit for bit");

    ServeWorkload wrong = w;
    for (ServeOp &op : wrong.ops) {
        if (op.kind == ServeOpKind::Rotate) {
            op.rotation += 1;
            break;
        }
    }
    check(precisionBits(got, replayWorkload(wrong, msg, pts)) < 5,
          "a replay of a different op list does not match");
}

} // namespace

int
main()
{
    tailRule();
    closureSums();
    replayAgainstDecryptedRequest();
    std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
    return g_failures == 0 ? 0 : 1;
}
