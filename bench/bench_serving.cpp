/**
 * @file
 * Throughput of the concurrent batch-serving runtime (src/serve/).
 *
 * Sweeps kernel backend x kernel threads x server workers x batch
 * size over the standard four-workload mix (bootstrap / HELR /
 * ResNet-20 / sorting traces lowered to executable requests), then
 * prints the measured host serving throughput next to the simulated
 * ARK accelerator draining the same mix (ArkSimulator::runBatch) —
 * the paper's single-chip FCFS bound against the host's
 * request-parallel one.
 *
 * A final row measures the network front-end: a WireClient submitting
 * over a loopback socket to the WireServer in the same process
 * (encrypt -> SUBMIT -> RESPONSE round trips, docs/wire_format.md).
 *
 * The last table leaves the closed loop: an open-loop arrival trace
 * (serve/arrival.h) over-saturates the server at ~3x its calibrated
 * capacity and compares goodput-under-SLO — completions inside the
 * class p99 budget per second — with admission control off (deep
 * queue, everyone eventually served, almost everyone late) vs on
 * (SLO-aware shedding, serve/admission.h). In every mode the adaptive
 * row must beat the no-admission baseline or the bench exits nonzero:
 * that comparison is the PR's acceptance gate and CI runs it via
 * `--smoke`.
 *
 * `--smoke` shrinks the sweep for CI (a handful of requests per
 * config, small op caps); any failed request exits nonzero so CI can
 * gate on it. `--requests N` overrides the per-config batch size.
 * `--json PATH` emits the rows machine-readably for
 * scripts/check_bench_regression.py (baseline:
 * bench/baselines/bench_serving.json).
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <vector>

#include "bench_util.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "rns/backend_kind.h"
#include "rns/cpu_features.h"
#include "serve/batch_server.h"
#include "serve/open_loop.h"

using namespace ark;

namespace {

struct SweepPoint
{
    BackendKind kind;
    size_t kernel_threads; ///< parallel backend pool size (0 = hw)
    size_t workers;
};

/// --json rows; simd-backend rows are named simd_* so the checker
/// compares them only between runs of the same kernel-table tier.
std::vector<BenchRow> g_rows;
bool g_all_ok = true;

std::string
rowName(const SweepPoint &pt)
{
    switch (pt.kind) {
    case BackendKind::Simd:
        return "simd_serve";
    case BackendKind::Parallel:
        return "serve_parallel_kt" + std::to_string(pt.kernel_threads);
    default:
        return "serve_scalar";
    }
}

/** The sweep and loopback rows' metrics: throughput and latency. */
std::vector<BenchMetric>
serveMetrics(double req_per_s, double p50_ms, double p99_ms)
{
    return {{"req_per_s", req_per_s, "1/s", Better::Higher},
            {"p50_ms", p50_ms, "ms", Better::Lower},
            {"p99_ms", p99_ms, "ms", Better::Lower}};
}

/** Build the full serving stack for one config and run one batch. */
ServeReport
runConfig(const CkksParams &base, const SweepPoint &pt, size_t batch,
          size_t max_ops, bool &all_ok)
{
    CkksParams p = base;
    p.backend = pt.kind;
    p.backend_threads = pt.kernel_threads;
    CkksContext ctx(p);

    Rng rng(20220618); // fixed seed: identical keys/inputs per config
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    const size_t slots = p.num_slots;
    for (int k = 0; k < 4; ++k) {
        std::vector<Complex> m(slots);
        for (size_t i = 0; i < slots; ++i)
            m[i] = Complex(0.5 + 0.001 * static_cast<double>(i % 17),
                           0.01 * k);
        store.insert(encoder.encode(m, ctx.maxLevel()));
    }

    LowerOptions opt;
    opt.max_ops = max_ops;
    auto workloads = standardServingMix(p, opt);

    std::vector<Ciphertext> inputs;
    for (int k = 0; k < 2; ++k) {
        std::vector<Complex> m(slots);
        for (size_t i = 0; i < slots; ++i)
            m[i] = Complex(0.9 - 0.002 * static_cast<double>(i % 13),
                           0.05 * k);
        Ciphertext ct = encryptor.encryptSymmetric(
            encoder.encode(m, ctx.maxLevel()), sk);
        ct.slots = slots;
        inputs.push_back(std::move(ct));
    }

    BatchServerConfig cfg;
    cfg.workers = pt.workers;
    cfg.queue_capacity = batch;
    BatchServer server(ctx, keys, store, workloads, inputs, cfg);

    std::vector<std::future<ServeResult>> futs;
    futs.reserve(batch);
    for (size_t i = 0; i < batch; ++i)
        futs.push_back(server.submit(i % server.workloads().size()));
    ServeReport rep = server.drain();
    for (auto &f : futs) {
        if (!f.get().ok)
            all_ok = false;
    }
    return rep;
}

/**
 * The network front-end measured over a real (loopback) socket: one
 * WireClient doing synchronous encrypt -> SUBMIT -> RESPONSE round
 * trips against the WireServer, including serialization and framing
 * (docs/wire_format.md) — the per-request wire overhead next to the
 * in-process rows above.
 */
void
runRemoteLoopback(const CkksParams &base, size_t requests)
{
    CkksContext ctx(base);
    Rng rng(20220618);
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    std::vector<Complex> m(base.num_slots, Complex(0.6, 0.05));
    store.insert(encoder.encode(m, ctx.maxLevel()));

    LowerOptions opt;
    opt.max_ops = 16;
    auto workloads = standardServingMix(base, opt);
    std::vector<Ciphertext> inputs;
    inputs.push_back(encryptor.encryptSymmetric(
        encoder.encode(m, ctx.maxLevel()), sk));

    BatchServerConfig cfg;
    cfg.workers = 2;
    BatchServer server(ctx, keys, store, workloads, inputs, cfg);
    WireServer net(server);

    WireClient client("127.0.0.1", net.port(), "bench-serving");
    client.openSession("bench-tenant");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng trng(99);
    KeyGenerator tkeygen(client.context(), trng);
    const SecretKey tsk = tkeygen.secretKey();
    u64 seed = 0x5EEDull;
    client.uploadMultiplicationKey(
        tkeygen.evkMultSeeded(tsk, seed++));
    for (i64 r : wl.rotations)
        client.uploadRotationKey(
            r, tkeygen.evkRotationSeeded(tsk, r, seed++));
    CkksEncoder tenc(client.context());
    CkksEncryptor tencr(client.context(), trng);
    const Ciphertext input = tencr.encryptSymmetric(
        tenc.encode(std::vector<Complex>(client.params().num_slots,
                                         Complex(0.4, -0.1)),
                    client.context().maxLevel()),
        tsk);

    using clock = std::chrono::steady_clock;
    std::vector<double> lat_ms;
    lat_ms.reserve(requests);
    const auto t0 = clock::now();
    for (size_t i = 0; i < requests; ++i) {
        const auto r0 = clock::now();
        const WireClient::SubmitOutcome out = client.submit(0, input);
        const auto r1 = clock::now();
        if (!out.ok) {
            std::fprintf(stderr, "remote request failed: %s\n",
                         out.error.c_str());
            g_all_ok = false;
        }
        lat_ms.push_back(
            std::chrono::duration<double, std::milli>(r1 - r0)
                .count());
    }
    const double wall_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    client.closeSession();
    (void)server.drain();

    std::sort(lat_ms.begin(), lat_ms.end());
    const double p50 = lat_ms[lat_ms.size() / 2];
    const double p99 = lat_ms[lat_ms.size() * 99 / 100];
    const double rps =
        wall_s > 0 ? static_cast<double>(requests) / wall_s : 0;

    header("network front-end: loopback client <-> server round trips");
    TablePrinter t({"path", "requests", "req/s", "p50 ms", "p99 ms"});
    t.addRow({"wire (loopback TCP)", std::to_string(requests),
              TablePrinter::fmt(rps, 1), TablePrinter::fmt(p50, 2),
              TablePrinter::fmt(p99, 2)});
    t.print();
    std::printf("(synchronous round trips incl. serialization + "
                "framing; compare the in-process rows above)\n");
    g_rows.push_back({"remote_loopback",
                      {{"requests", requests}, {"clients", 1}},
                      serveMetrics(rps, p50, p99)});
}

/**
 * Open-loop over-saturation: goodput under the SLO with admission
 * control off vs on, against the same generated arrival trace
 * (serve/arrival.h + serve/open_loop.h).
 *
 * Calibration first: a few closed-loop sequential requests measure
 * the mean service time, which sets the class p99 budget (8x mean —
 * generous enough that a bounded queue meets it, hopeless once the
 * queue runs deep), the admission prior, and the offered rate (3x the
 * measured capacity, so the server is genuinely over-saturated and
 * the no-admission queue grows without bound until the trace ends).
 *
 * Returns false — the bench exits nonzero — unless the adaptive row's
 * goodput beats the no-admission baseline: the headline the open-loop
 * machinery exists to move, gated in --smoke by CI.
 */
bool
openLoopTable(const CkksParams &base, bool smoke)
{
    CkksParams p = base;
    p.backend = BackendKind::Scalar;
    CkksContext ctx(p);
    Rng rng(20220618);
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    std::vector<Complex> m(p.num_slots, Complex(0.55, 0.02));
    store.insert(encoder.encode(m, ctx.maxLevel()));

    LowerOptions opt;
    opt.max_ops = smoke ? 16 : 32;
    auto workloads = standardServingMix(p, opt);
    std::vector<Ciphertext> inputs;
    Ciphertext ct = encryptor.encryptSymmetric(
        encoder.encode(m, ctx.maxLevel()), sk);
    ct.slots = p.num_slots;
    inputs.push_back(std::move(ct));

    const size_t workers = 2;

    // Closed-loop calibration: one request at a time, so the measured
    // latency IS the service time (no queueing component).
    double mean_service_ms = 0;
    {
        BatchServerConfig cfg;
        cfg.workers = workers;
        BatchServer server(ctx, keys, store, workloads, inputs, cfg);
        const size_t warm = smoke ? 6 : 12;
        for (size_t i = 0; i < warm; ++i) {
            if (!server.submit(i % workloads.size()).get().ok)
                g_all_ok = false;
        }
        mean_service_ms = server.drain().latency.mean_ms;
    }
    if (mean_service_ms < 0.01)
        mean_service_ms = 0.01; // degenerate calibration; keep going

    const double target_p99_ms = 8.0 * mean_service_ms;
    const double capacity_rps = 1000.0 * workers / mean_service_ms;

    ArrivalConfig acfg;
    acfg.rate_per_sec = 3.0 * capacity_rps;
    acfg.duration_s = smoke ? 0.4 : 1.5;
    acfg.seed = 20220618;
    // A 2x flash crowd mid-trace: the rebalance/shedding pressure is
    // not uniform in production either.
    acfg.bursts = {{acfg.duration_s * 0.5, acfg.duration_s * 0.2, 2.0}};
    acfg = arrivalConfigFromEnv(acfg); // ARK_ARRIVAL_* overrides
    const auto events = generateArrivals(acfg, workloads.size());

    header("open-loop SLO goodput: no-admission baseline vs adaptive");
    std::printf("calibrated mean service %.2f ms -> capacity ~%.0f "
                "req/s; offered ~%.0f req/s for %.2f s (2x burst "
                "mid-trace), p99 budget %.1f ms\n",
                mean_service_ms, capacity_rps, acfg.rate_per_sec,
                acfg.duration_s, target_p99_ms);

    TablePrinter t({"admission", "offered", "admitted", "shed", "ok",
                    "goodput/s", "SLO hit %", "e2e p99 ms"});
    double baseline_good = -1, adaptive_good = -1;
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
        BatchServerConfig cfg;
        cfg.workers = workers;
        // Deep queue: admission (not capacity) decides who waits, so
        // the baseline really does serve everyone — late.
        cfg.queue_capacity = events.size() + 1;
        cfg.admission.enabled = adaptive != 0;
        cfg.admission.classes = {{"standard", 0, 0, target_p99_ms}};
        cfg.admission.expected_service_ms = mean_service_ms;
        cfg.admission.min_samples = 32;
        BatchServer server(ctx, keys, store, workloads, inputs, cfg);

        const OpenLoopStats s = runOpenLoop(server, events);
        if (s.failed > 0 || s.refused > 0)
            g_all_ok = false;
        const double good = s.report.goodput_per_sec;
        const double hit =
            s.report.requests > 0
                ? 100.0 * static_cast<double>(s.report.slo_good) /
                      static_cast<double>(s.report.requests)
                : 0;
        t.addRow({adaptive ? "slo-adaptive" : "off (baseline)",
                  std::to_string(s.offered),
                  std::to_string(s.admitted),
                  std::to_string(s.shed + s.evicted),
                  std::to_string(s.ok), TablePrinter::fmt(good, 1),
                  TablePrinter::fmt(hit, 1),
                  TablePrinter::fmt(s.report.e2e.p99_ms, 2)});
        // The offered load is fixed at 3x capacity so the row key
        // matches across machines.
        g_rows.push_back(
            {adaptive ? "openloop_adaptive" : "openloop_baseline",
             {{"overload", 3}, {"workers", workers}},
             {{"goodput_per_s", good, "1/s", Better::Higher},
              {"e2e_p50_ms", s.report.e2e.p50_ms, "ms", Better::Lower},
              {"e2e_p99_ms", s.report.e2e.p99_ms, "ms",
               Better::Lower}}});
        (adaptive != 0 ? adaptive_good : baseline_good) = good;
    }
    t.print();
    std::printf("(goodput = completions inside the %.1f ms p99 budget "
                "per second of drain window; shed = admission refusals "
                "+ queue evictions, wire code SHED)\n",
                target_p99_ms);

    if (!(adaptive_good > baseline_good)) {
        std::fprintf(stderr,
                     "bench_serving: open-loop gate failed: adaptive "
                     "goodput %.1f/s must beat the no-admission "
                     "baseline %.1f/s\n",
                     adaptive_good, baseline_good);
        return false;
    }
    return true;
}

const char *kUsage =
    "bench_serving — batch-serving throughput sweep (src/serve/)\n"
    "\n"
    "Usage: bench_serving [--smoke] [--json PATH] [--requests N]\n"
    "                     [--help]\n"
    "  --smoke   CI subset: 7 sweep points, 8 requests each, smaller\n"
    "            per-request op caps, a 0.4 s open-loop trace. Any\n"
    "            failed request or a failed open-loop goodput gate\n"
    "            still exits nonzero.\n"
    "  --json PATH  also write the sweep rows as JSON for\n"
    "            scripts/check_bench_regression.py (committed\n"
    "            baseline: bench/baselines/bench_serving.json).\n"
    "  --requests N  requests per sweep config (default: 8 in smoke\n"
    "            mode, 32 otherwise; also sizes the loopback table).\n"
    "  --help    this text.\n"
    "\n"
    "Columns (host sweep):\n"
    "  backend    kernel engine (scalar | parallel | simd,\n"
    "             rns/backend.h; simd dispatches the best host ISA)\n"
    "  kthreads   parallel backend pool size ('-' otherwise)\n"
    "  workers    BatchServer request worker threads\n"
    "  wall ms    drain-window wall time for the whole batch\n"
    "  req/s      completed requests per second (the headline)\n"
    "  HE-ops/s   primitive HE ops per second across requests\n"
    "  Mwords/s   backend-measured operand words streamed per second\n"
    "  p50/p99 ms execute-time percentiles (execute() alone, no\n"
    "             queueing; histogram estimates, < 9.05% high)\n"
    "The second table puts the best host config next to the simulated\n"
    "single-chip ARK accelerator draining the same mix FCFS\n"
    "(ArkSimulator::runBatch) — different parameter sets, so compare\n"
    "shapes, not absolute req/s.\n"
    "The final table over-saturates the server with an open-loop\n"
    "arrival trace (serve/arrival.h; ARK_ARRIVAL_* override the\n"
    "trace) and gates on SLO goodput: admission control on must beat\n"
    "the no-admission baseline, every mode, nonzero exit otherwise.\n";

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    size_t requests = 0;
    int exit_code = 0;
    if (!parseBenchArgs(argc, argv, "bench_serving", kUsage, smoke,
                        json_path, &requests, exit_code))
        return exit_code;

    // This binary sweeps backends explicitly; drop any env override so
    // every row measures what its label says.
    unsetenv("ARK_BACKEND");
    unsetenv("ARK_THREADS");
    unsetenv("ARK_SIMD_TIER");

    const CkksParams base = CkksParams::testTiny();
    const size_t batch = requests > 0 ? requests : (smoke ? 8 : 32);
    const size_t max_ops = smoke ? 16 : 32;

    const std::vector<SweepPoint> sweep =
        smoke ? std::vector<SweepPoint>{{BackendKind::Scalar, 0, 1},
                                        {BackendKind::Scalar, 0, 2},
                                        {BackendKind::Simd, 0, 1},
                                        {BackendKind::Simd, 0, 2},
                                        {BackendKind::Parallel, 2, 1},
                                        {BackendKind::Parallel, 2, 2},
                                        {BackendKind::Parallel, 4, 1}}
              : std::vector<SweepPoint>{{BackendKind::Scalar, 0, 1},
                                        {BackendKind::Scalar, 0, 2},
                                        {BackendKind::Scalar, 0, 4},
                                        {BackendKind::Scalar, 0, 8},
                                        {BackendKind::Simd, 0, 1},
                                        {BackendKind::Simd, 0, 2},
                                        {BackendKind::Simd, 0, 4},
                                        {BackendKind::Simd, 0, 8},
                                        {BackendKind::Parallel, 2, 1},
                                        {BackendKind::Parallel, 4, 1},
                                        {BackendKind::Parallel, 4, 2},
                                        {BackendKind::Parallel, 4, 4}};

    header("serving throughput: backend x kernel threads x workers");
    std::printf("params %s, batch %zu, <=%zu ops/request, "
                "4-workload mix\n",
                base.name.c_str(), batch, max_ops);

    TablePrinter t({"backend", "kthreads", "workers", "wall ms",
                    "req/s", "HE-ops/s", "Mwords/s", "p50 ms",
                    "p99 ms"});
    bool all_ok = true;
    double scalar_1w = 0, best = 0;
    std::string best_name = "-";
    for (const auto &pt : sweep) {
        ServeReport rep = runConfig(base, pt, batch, max_ops, all_ok);
        const std::string label = backendKindName(pt.kind);
        g_rows.push_back({rowName(pt),
                          {{"requests", batch}, {"workers", pt.workers}},
                          serveMetrics(rep.requests_per_sec,
                                       rep.latency.p50_ms,
                                       rep.latency.p99_ms)});
        t.addRow({label,
                  pt.kind == BackendKind::Parallel
                      ? std::to_string(pt.kernel_threads)
                      : "-",
                  std::to_string(pt.workers),
                  TablePrinter::fmt(rep.wall_seconds * 1e3, 1),
                  TablePrinter::fmt(rep.requests_per_sec, 1),
                  TablePrinter::fmt(rep.he_ops_per_sec, 0),
                  TablePrinter::fmt(rep.words_per_sec / 1e6, 1),
                  TablePrinter::fmt(rep.latency.p50_ms, 2),
                  TablePrinter::fmt(rep.latency.p99_ms, 2)});
        if (pt.kind == BackendKind::Scalar && pt.workers == 1)
            scalar_1w = rep.requests_per_sec;
        if (rep.requests_per_sec > best) {
            best = rep.requests_per_sec;
            best_name = label + "/" +
                        std::to_string(pt.kernel_threads) + "kt/" +
                        std::to_string(pt.workers) + "w";
        }
    }
    t.print();
    if (scalar_1w > 0) {
        std::printf("\nbest config %s: %.2fx the scalar 1-worker "
                    "baseline\n",
                    best_name.c_str(), best / scalar_1w);
    }

    // Simulated accelerator serving the same mix at the paper's
    // parameters: the FCFS single-chip bound, side by side.
    header("host vs simulated ARK accelerator (same workload mix)");
    const CkksParams ark_p = CkksParams::ark();
    std::vector<SimProgram> progs;
    progs.push_back(bootstrapProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(helrProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(resnetProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(sortingProgram(ark_p, KeySchedule::MinKS));
    std::vector<const SimProgram *> q;
    for (size_t i = 0; i < batch; ++i)
        q.push_back(&progs[i % progs.size()]);
    ArkSimulator sim(MachineConfig::arkBase(),
                     SimAlgo{KeySchedule::MinKS, true});
    BatchSimResult sb = sim.runBatch(q);

    TablePrinter s({"platform", "params", "batch", "req/s", "p50 ms",
                    "p99 ms"});
    s.addRow({"host (" + best_name + ")", base.name,
              std::to_string(batch), TablePrinter::fmt(best, 1), "-",
              "-"});
    s.addRow({"simulated ARK", ark_p.name, std::to_string(batch),
              TablePrinter::fmt(sb.requests_per_sec, 1),
              fmtMs(sb.p50_latency, 1), fmtMs(sb.p99_latency, 1)});
    s.print();

    // The same requests once more, but over a real socket: the wire
    // protocol's per-request cost measured end to end.
    runRemoteLoopback(base, batch);

    // Leave the closed loop: over-saturating arrival trace, goodput
    // under the SLO with and without admission control. Gated.
    const bool open_loop_ok = openLoopTable(base, smoke);

    g_all_ok = g_all_ok && all_ok && open_loop_ok;
    if (!json_path.empty() &&
        !writeBenchJson(json_path, "bench_serving", smoke, g_all_ok,
                        g_rows))
        return 1;

    if (!g_all_ok) {
        std::fprintf(stderr, "bench_serving: some requests failed\n");
        return 1;
    }
    return 0;
}
