/**
 * @file
 * Serving demo: stand up the concurrent batch-serving runtime on a
 * toy parameter set, admit a mixed batch of workload requests, and
 * print per-request results, the drain report, and the simulated ARK
 * accelerator serving the same mix for comparison.
 */

#include <cstdio>
#include <future>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "serve/batch_server.h"
#include "sim/simulator.h"
#include "workloads/programs.h"

using namespace ark;

int
main()
{
    // A context whose kernel backend is the limb-parallel engine; the
    // server's request workers fan out on top of it.
    CkksParams p = CkksParams::testTiny();
    p.backend = BackendKind::Parallel;
    p.backend_threads = 2;
    CkksContext ctx(p);

    Rng rng(2022);
    KeyGenerator keygen(ctx, rng);
    SecretKey sk = keygen.secretKey();
    KeyCache keys(keygen, sk, ctx.degree());
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, rng);

    // Plaintext bank in OF-Limb mode: stored q0-limbs only, the other
    // limbs regenerated at use time on whatever thread needs them.
    PlaintextStore store(ctx, PlaintextMode::OFLimb);
    const size_t slots = p.num_slots;
    std::vector<Complex> m(slots, Complex(0.7, 0.1));
    store.insert(encoder.encode(m, ctx.maxLevel()));

    // Two pre-encrypted input templates requests start from.
    std::vector<Ciphertext> inputs;
    for (int k = 0; k < 2; ++k) {
        Ciphertext ct = encryptor.encryptSymmetric(
            encoder.encode(m, ctx.maxLevel()), sk);
        ct.slots = slots;
        inputs.push_back(std::move(ct));
    }

    // The standard mix: the paper's four workload traces lowered to
    // executable requests for these parameters.
    LowerOptions opt;
    opt.max_ops = 24;
    auto workloads = standardServingMix(p, opt);
    std::printf("workload mix:\n");
    for (const auto &w : workloads) {
        std::printf("  %-18s %3zu ops, %zu levels, %zu rotation keys\n",
                    w.name.c_str(), w.ops.size(), w.levelsNeeded(),
                    w.rotationAmounts().size());
    }

    BatchServerConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = 16;
    BatchServer server(ctx, keys, store, workloads, inputs, cfg);

    const size_t batch = 12;
    std::printf("\nsubmitting %zu requests to %zu workers "
                "(backend: %s, %zu kernel threads)...\n",
                batch, server.workers(), ctx.backend().name(),
                ctx.backend().threads());
    std::vector<size_t> indices;
    std::vector<std::future<ServeResult>> futs;
    for (size_t i = 0; i < batch; ++i) {
        indices.push_back(i % workloads.size());
        futs.push_back(server.submit(indices.back()));
    }

    std::vector<u64> checksums;
    for (auto &f : futs) {
        ServeResult r = f.get();
        checksums.push_back(r.checksum);
        std::printf("  request %2llu: %s  %6.2f ms  level %d  "
                    "checksum %016llx%s%s\n",
                    static_cast<unsigned long long>(r.id),
                    r.ok ? "ok " : "ERR", r.latency_ms, r.final_level,
                    static_cast<unsigned long long>(r.checksum),
                    r.ok ? "" : "  ", r.error.c_str());
    }

    ServeReport rep = server.drain();
    std::printf("\n%s\n", rep.toString().c_str());

    // The same batch admitted as one: submitBatch runs requests that
    // share rotation evks back to back, and answers in the caller's
    // order with the same bits as the per-request pass above.
    auto batch_futs = server.submitBatch(indices);
    size_t matching = 0;
    for (size_t i = 0; i < batch; ++i)
        matching += batch_futs[i].get().checksum == checksums[i];
    ServeReport batch_rep = server.drain();
    std::printf("\nbatch admission: %zu/%zu checksums match the "
                "per-request pass\n%s\n",
                matching, batch, batch_rep.toString().c_str());

    // The simulated accelerator serving the same mix at the paper's
    // parameters (single chip, FCFS).
    const CkksParams ark_p = CkksParams::ark();
    std::vector<SimProgram> progs;
    progs.push_back(bootstrapProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(helrProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(resnetProgram(ark_p, KeySchedule::MinKS));
    progs.push_back(sortingProgram(ark_p, KeySchedule::MinKS));
    std::vector<const SimProgram *> q;
    for (size_t i = 0; i < batch; ++i)
        q.push_back(&progs[i % progs.size()]);
    BatchSimResult sb =
        ArkSimulator(MachineConfig::arkBase(),
                     SimAlgo{KeySchedule::MinKS, true})
            .runBatch(q);
    std::printf("\nsimulated ARK accelerator, same mix at %s params: "
                "%.1f req/s, p99 latency %.1f ms\n",
                ark_p.name.c_str(), sb.requests_per_sec,
                sb.p99_latency * 1e3);
    return 0;
}
