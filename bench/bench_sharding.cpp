/**
 * @file
 * Multi-accelerator sharding tables (src/shard/): what a fleet of N
 * simulated ARK chips buys over one chip, and what multi-tenancy adds
 * to the host's evk working set.
 *
 * Table 1 (DAG sharding, simulated): each workload trace is scheduled
 * with EvkCluster, partitioned by planProgramShards, and replayed by
 * ArkSimulator::runSharded at the scratchpad pressure point. The
 * headline column is "max evk GB/shard": the per-chip evk HBM stream,
 * which must sit strictly below the single-chip EvkCluster baseline
 * for partitioning the key working set to pay.
 *
 * Table 2 (fleet serving, simulated): N chips drain a mixed request
 * batch, whole requests routed by program identity with greedy
 * load balancing — aggregate req/s vs N.
 *
 * Table 3 (per-tenant evk cache pressure): what the network
 * front-end's multi-tenancy adds to the host's key working set. Each
 * remote tenant uploads its own evk set (one mult key plus the
 * rotation keys of the workload mix) into an uploaded-mode KeyCache
 * (docs/serving.md §3), so the host's resident evk bytes scale
 * linearly with tenants — the table shows the resident MiB
 * (KeyCache::byteSize) next to the wire MB it took to ship those keys
 * seed-compressed vs raw (docs/wire_format.md §6).
 *
 * `--smoke` shrinks the chip and tenant axes for CI and (always)
 * gates the headline: at 2 shards on bootstrap and ResNet, every
 * shard's evk traffic must be strictly below the single-chip
 * EvkCluster baseline.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "boot/key_cache.h"
#include "ckks/keygen.h"
#include "graph/builder.h"
#include "rns/automorphism.h"
#include "serve/workload.h"
#include "shard/shard_plan.h"
#include "wire/serializer.h"

using namespace ark;

namespace {

const char *kUsage =
    "bench_sharding — multi-accelerator sharding tables (src/shard/)\n"
    "\n"
    "Usage: bench_sharding [--smoke] [--json PATH] [--help]\n"
    "  --smoke   CI subset: N in {1,2} chips or tenants, a smaller\n"
    "            fleet batch. The acceptance gate below runs in\n"
    "            every mode.\n"
    "  --json PATH  also write the table 1 rows as JSON for\n"
    "            scripts/check_bench_regression.py (committed\n"
    "            baseline: bench/baselines/bench_sharding.json).\n"
    "  --help    this text.\n"
    "\n"
    "Gate (nonzero exit on failure): at 2 shards on the bootstrap and\n"
    "ResNet traces, every shard's evk HBM traffic must be strictly\n"
    "below the single-chip EvkCluster baseline.\n"
    "\n"
    "Columns, table 1 (DAG sharding @ scratchpad pressure):\n"
    "  N                shards (simulated chips)\n"
    "  max evk GB/shard largest per-chip evk HBM stream (headline)\n"
    "  sum evk GB       fleet-total evk stream (<= single-chip)\n"
    "  cut              dependence edges crossing chips\n"
    "  link GB          ciphertext bytes over inter-chip links\n"
    "  makespan ms      slowest chip + serialized link time\n"
    "  speedup          single-chip EvkCluster seconds / makespan\n"
    "Columns, table 2 (fleet serving): aggregate req/s of N chips\n"
    "draining the 4-workload mix, requests routed by program.\n"
    "Columns, table 3 (tenant evk pressure): resident evk MiB on the\n"
    "host and seeded-vs-raw upload wire MB as remote tenants\n"
    "(docs/serving.md) each bring their own key set.\n";

/** Greedy balance of whole requests onto chips by service time. */
std::vector<size_t>
assignRequests(const std::vector<double> &service_s, size_t chips)
{
    std::vector<size_t> chip_of(service_s.size(), 0);
    std::vector<double> load(chips, 0);
    for (size_t i = 0; i < service_s.size(); ++i) {
        size_t best = 0;
        for (size_t c = 1; c < chips; ++c) {
            if (load[c] < load[best])
                best = c;
        }
        chip_of[i] = best;
        load[best] += service_s[i];
    }
    return chip_of;
}

bool
dagShardingTable(bool smoke, std::vector<BenchRow> &json_rows)
{
    const CkksParams p = CkksParams::ark();
    struct Entry
    {
        const char *label;
        SimProgram prog;
        bool gated;
    };
    std::vector<Entry> traces;
    // Every trace in every mode: the whole table replays in about a
    // second, and a smoke run then covers each baseline row family.
    traces.push_back(
        {"bootstrap", bootstrapProgram(p, KeySchedule::MinKS), true});
    traces.push_back(
        {"HELR", helrProgram(p, KeySchedule::MinKS), false});
    traces.push_back(
        {"ResNet-20", resnetProgram(p, KeySchedule::MinKS), true});
    traces.push_back(
        {"sorting", sortingProgram(p, KeySchedule::MinKS), false});

    // The pressure point bench_scheduler gates at: one evk slot of
    // scratchpad headroom, where the evk working set decides traffic.
    const MachineConfig m =
        MachineConfig::arkBase().withScratchpad(384);
    ArkSimulator sim(m, SimAlgo{KeySchedule::MinKS, true});
    const size_t slots = sim.evkSlotCapacity(p);
    const std::vector<size_t> fleet =
        smoke ? std::vector<size_t>{1, 2}
              : std::vector<size_t>{1, 2, 4, 8};

    char title[96];
    std::snprintf(title, sizeof title,
                  "DAG sharding @ %.0f MiB scratchpad (%zu evk "
                  "slots), EvkCluster schedule",
                  m.scratchpad_mib, slots);
    header(title);

    bool gate_ok = true;
    TablePrinter t({"trace", "N", "max evk GB/shard", "sum evk GB",
                    "cut", "link GB", "makespan ms", "speedup"});
    for (auto &tr : traces) {
        const HeGraph g = liftProgram(tr.prog);
        const ScheduledProgram sp =
            scheduleGraph(g, SchedulePolicy::EvkCluster, slots);
        const SimResult single = sim.runScheduled(sp).scheduled;
        for (size_t n : fleet) {
            const ShardPlan plan = planProgramShards(g, n);
            const ShardedSimResult r =
                sim.runSharded(sp, plan, &single);
            t.addRow({tr.label, std::to_string(n),
                      TablePrinter::fmt(r.max_shard_evk_bytes / 1e9,
                                        2),
                      TablePrinter::fmt(r.total_evk_bytes / 1e9, 2),
                      std::to_string(plan.cut_edges.size()),
                      TablePrinter::fmt(r.link_bytes / 1e9, 2),
                      fmtMs(r.seconds, 1),
                      TablePrinter::fmt(r.speedup, 2)});
            json_rows.push_back(
                {std::string("shard_") + tr.label,
                 {{"shards", n}, {"evk_slots", slots}},
                 {{"speedup_vs_single_chip", r.speedup, "x",
                   Better::Higher},
                  {"makespan_ms", r.seconds * 1e3, "ms", Better::Lower},
                  {"max_shard_evk_gb", r.max_shard_evk_bytes / 1e9, "GB",
                   Better::Lower}}});
            if (tr.gated && n == 2 &&
                !(r.max_shard_evk_bytes < single.evk_bytes)) {
                std::fprintf(stderr,
                             "bench_sharding: shard evk traffic did "
                             "not drop below single chip on %s "
                             "(%.3g GB vs %.3g GB)\n",
                             tr.label, r.max_shard_evk_bytes / 1e9,
                             single.evk_bytes / 1e9);
                gate_ok = false;
            }
        }
    }
    t.print();
    return gate_ok;
}

void
fleetServingTable(bool smoke)
{
    header("simulated fleet serving the 4-workload mix");
    const CkksParams p = CkksParams::ark();
    std::vector<SimProgram> progs;
    progs.push_back(bootstrapProgram(p, KeySchedule::MinKS));
    progs.push_back(helrProgram(p, KeySchedule::MinKS));
    progs.push_back(resnetProgram(p, KeySchedule::MinKS));
    progs.push_back(sortingProgram(p, KeySchedule::MinKS));

    const size_t batch = smoke ? 16 : 64;
    ArkSimulator sim(MachineConfig::arkBase(),
                     SimAlgo{KeySchedule::MinKS, true});

    // Per-request service estimate for the balancer: one simulated
    // run per distinct program (memoized by index).
    std::vector<double> prog_s;
    for (const SimProgram &pr : progs)
        prog_s.push_back(sim.run(pr).seconds);
    std::vector<double> service;
    for (size_t i = 0; i < batch; ++i)
        service.push_back(prog_s[i % progs.size()]);

    TablePrinter t({"chips", "req/s", "p99 ms (worst chip)",
                    "speedup"});
    double one_chip = 0;
    for (size_t chips : smoke ? std::vector<size_t>{1, 2}
                              : std::vector<size_t>{1, 2, 4, 8}) {
        const std::vector<size_t> chip_of =
            assignRequests(service, chips);
        double makespan = 0, worst_p99 = 0;
        for (size_t c = 0; c < chips; ++c) {
            std::vector<const SimProgram *> q;
            for (size_t i = 0; i < batch; ++i) {
                if (chip_of[i] == c)
                    q.push_back(&progs[i % progs.size()]);
            }
            const BatchSimResult b = sim.runBatch(q);
            makespan = std::max(makespan, b.seconds);
            worst_p99 = std::max(worst_p99, b.p99_latency);
        }
        const double rps =
            makespan > 0 ? static_cast<double>(batch) / makespan : 0;
        if (chips == 1)
            one_chip = rps;
        t.addRow({std::to_string(chips), TablePrinter::fmt(rps, 1),
                  fmtMs(worst_p99, 1),
                  TablePrinter::fmt(one_chip > 0 ? rps / one_chip : 1,
                                    2)});
    }
    t.print();
}

/**
 * Per-tenant uploaded-evk cache pressure: each remote tenant's key
 * set (1 mult + the mix's rotation evks, seed-compressed on the wire
 * per docs/wire_format.md §6) lands in its own uploaded-mode
 * KeyCache. Resident bytes via KeyCache::byteSize, wire bytes via the
 * serializer itself.
 */
void
tenantPressureTable(bool smoke)
{
    header("per-tenant evk cache pressure (network front-end)");
    const CkksParams p = CkksParams::testTiny();
    CkksContext ctx(p);

    // The rotation-amount union of the standard mix: exactly the evks
    // one tenant must upload to run every workload.
    LowerOptions opt;
    opt.max_ops = smoke ? 16 : 32;
    std::vector<i64> amounts;
    for (const ServeWorkload &w : standardServingMix(p, opt)) {
        for (i64 r : w.rotationAmounts())
            amounts.push_back(r);
    }
    std::sort(amounts.begin(), amounts.end());
    amounts.erase(std::unique(amounts.begin(), amounts.end()),
                  amounts.end());

    Rng rng(7);
    TablePrinter t({"tenants", "evks/tenant", "resident MiB",
                    "wire MB (seeded)", "wire MB (raw)", "savings"});
    std::vector<std::unique_ptr<KeyCache>> tenants;
    u64 seed = 0xBEEF;
    size_t seeded_wire = 0, raw_wire = 0;
    for (size_t n : smoke ? std::vector<size_t>{1, 2}
                          : std::vector<size_t>{1, 2, 4, 8}) {
        while (tenants.size() < n) {
            // One tenant: fresh secret, seeded evks, uploaded-mode
            // cache — the same path a WireServer session takes.
            KeyGenerator keygen(ctx, rng);
            const SecretKey sk = keygen.secretKey();
            auto cache = std::make_unique<KeyCache>(ctx.degree());
            {
                const EvalKey mult =
                    keygen.evkMultSeeded(sk, seed++);
                ByteWriter ws, wr;
                writeEvalKey(ws, EvalKeyPurpose::Multiplication, 0,
                             mult);
                EvalKey raw = mult;
                raw.seeded = false;
                writeEvalKey(wr, EvalKeyPurpose::Multiplication, 0,
                             raw);
                seeded_wire += ws.size();
                raw_wire += wr.size();
                cache->insertMultiplication(mult);
            }
            for (i64 r : amounts) {
                const EvalKey key =
                    keygen.evkRotationSeeded(sk, r, seed++);
                ByteWriter ws, wr;
                writeEvalKey(ws, EvalKeyPurpose::Galois,
                             galoisElt(r, ctx.degree()), key);
                EvalKey raw = key;
                raw.seeded = false;
                writeEvalKey(wr, EvalKeyPurpose::Galois,
                             galoisElt(r, ctx.degree()), raw);
                seeded_wire += ws.size();
                raw_wire += wr.size();
                cache->insertRotation(r, key);
            }
            tenants.push_back(std::move(cache));
        }
        size_t resident = 0;
        for (const auto &c : tenants)
            resident += c->byteSize();
        t.addRow({std::to_string(n),
                  std::to_string(1 + amounts.size()),
                  TablePrinter::fmt(static_cast<double>(resident) /
                                        (1024.0 * 1024.0),
                                    2),
                  TablePrinter::fmt(static_cast<double>(seeded_wire) /
                                        1e6,
                                    2),
                  TablePrinter::fmt(static_cast<double>(raw_wire) /
                                        1e6,
                                    2),
                  TablePrinter::fmt(
                      seeded_wire > 0
                          ? static_cast<double>(raw_wire) /
                                static_cast<double>(seeded_wire)
                          : 0,
                      2)});
    }
    t.print();
    std::printf("(resident = uploaded-mode KeyCache::byteSize summed "
                "over tenants; wire = cumulative EVAL_KEY frame "
                "bytes, seed-compressed vs raw)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    int exit_code = 0;
    if (!parseBenchArgs(argc, argv, "bench_sharding", kUsage, smoke,
                        json_path, nullptr, exit_code))
        return exit_code;

    std::vector<BenchRow> json_rows;
    const bool gate_ok = dagShardingTable(smoke, json_rows);
    fleetServingTable(smoke);
    tenantPressureTable(smoke);

    if (!json_path.empty() &&
        !writeBenchJson(json_path, "bench_sharding", smoke, gate_ok,
                        json_rows))
        return 1;

    if (!gate_ok) {
        std::fprintf(stderr, "bench_sharding: sharding gate failed\n");
        return 1;
    }
    return 0;
}
