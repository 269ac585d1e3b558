/**
 * @file
 * Scheduler policy comparison (src/graph/) across the paper's four
 * workload traces: for each trace x scratchpad capacity, how much evk
 * HBM traffic does each policy stream, and what does that do to
 * simulated latency?
 *
 * The interesting axis is scratchpad pressure. The traces are emitted
 * in their natural (unhoisted) program order, where BSGS baby/giant
 * key uses interleave; when the scratchpad holds the whole interleaved
 * working set (ARK's 512 MiB was sized for exactly that), every reuse
 * hits and scheduling is moot — the paper's design point. Shrink the
 * scratchpad below the working set and the same trace thrashes:
 * EvkCluster (dependence-safe same-key grouping, i.e. Min-KS applied
 * at schedule time) recovers the traffic, and BeladyResidency bounds
 * what any smarter eviction could still remove at larger capacities.
 *
 * `--smoke` runs the CI subset and (always) gates on the subsystem's
 * headline claim: EvkCluster must strictly reduce evk HBM traffic vs
 * SourceOrder on the bootstrap and ResNet traces under pressure.
 */

#include <cstring>
#include <vector>

#include "bench_util.h"
#include "core/traffic_analyzer.h"
#include "graph/builder.h"
#include "graph/schedule.h"

using namespace ark;

namespace {

struct TraceEntry
{
    const char *label;
    SimProgram prog;
};

constexpr SchedulePolicy kPolicies[] = {
    SchedulePolicy::SourceOrder,
    SchedulePolicy::EvkCluster,
    SchedulePolicy::BeladyResidency,
};

const char *kUsage =
    "bench_scheduler — scheduler policy comparison (src/graph/)\n"
    "\n"
    "Usage: bench_scheduler [--smoke] [--json PATH] [--help]\n"
    "  --smoke   CI subset: bootstrap + ResNet traces at the 384 MiB\n"
    "            pressure point only. The gate below runs in every\n"
    "            mode.\n"
    "  --json PATH  also write the policy rows as JSON for\n"
    "            scripts/check_bench_regression.py (committed\n"
    "            baseline: bench/baselines/bench_scheduler.json).\n"
    "  --help    this text.\n"
    "\n"
    "Gate (nonzero exit on failure): EvkCluster must strictly reduce\n"
    "evk HBM traffic vs SourceOrder on the bootstrap and ResNet\n"
    "traces at 384 MiB.\n"
    "\n"
    "Columns:\n"
    "  policy      source-order | evk-cluster | belady-residency\n"
    "  evk GB      evk HBM stream the policy leaves (lower = better)\n"
    "  hit %       evk scratchpad hit rate of the residency replay\n"
    "  interleave  max distinct other evks between two uses of one\n"
    "              evk (0 = perfectly clustered; bounds the slot\n"
    "              capacity needed to make every reuse hit)\n"
    "  HBM GB      total off-chip traffic\n"
    "  sim ms      simulated latency of the scheduled order\n"
    "  speedup     source-order seconds / scheduled seconds\n"
    "The final table maps the bootstrap trace onto the Fig. 2 axes\n"
    "(traffic vs arithmetic intensity) per policy.\n";

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    int exit_code = 0;
    if (!parseBenchArgs(argc, argv, "bench_scheduler", kUsage, smoke,
                        json_path, nullptr, exit_code))
        return exit_code;

    const CkksParams p = CkksParams::ark();
    std::vector<TraceEntry> traces;
    traces.push_back(
        {"bootstrap", bootstrapProgram(p, KeySchedule::MinKS)});
    if (!smoke)
        traces.push_back({"HELR", helrProgram(p, KeySchedule::MinKS)});
    traces.push_back(
        {"ResNet-20", resnetProgram(p, KeySchedule::MinKS)});
    if (!smoke)
        traces.push_back(
            {"sorting", sortingProgram(p, KeySchedule::MinKS)});

    // 384 MiB: one evk slot beside the key-switch working set — the
    // pressure point where issue order decides the traffic. 512 MiB is
    // the paper's design point (the interleaved 2-key working set just
    // fits); 768 MiB gives eviction policy room (4 slots).
    const std::vector<double> spads =
        smoke ? std::vector<double>{384}
              : std::vector<double>{384, 512, 768};

    // --json rows: one per trace x policy x scratchpad.
    std::vector<BenchRow> json_rows;

    bool gate_ok = true;
    for (double spad : spads) {
        const MachineConfig m =
            MachineConfig::arkBase().withScratchpad(spad);
        ArkSimulator sim(m, SimAlgo{KeySchedule::MinKS, true});
        const size_t slots = sim.evkSlotCapacity(p);

        char title[96];
        std::snprintf(title, sizeof title,
                      "scheduler policies @ %.0f MiB scratchpad "
                      "(%zu evk slots)",
                      spad, slots);
        header(title);

        TablePrinter t({"trace", "policy", "evk GB", "hit %",
                        "interleave", "HBM GB", "sim ms", "speedup"});
        for (auto &tr : traces) {
            const HeGraph g = liftProgram(tr.prog);
            const SimResult baseline = sim.run(tr.prog);
            double src_evk_bytes = 0;
            for (SchedulePolicy pol : kPolicies) {
                const ScheduledProgram sp =
                    scheduleGraph(g, pol, slots);
                const ScheduledSimResult r =
                    sim.runScheduled(sp, &baseline);
                if (pol == SchedulePolicy::SourceOrder)
                    src_evk_bytes = r.scheduled.evk_bytes;
                t.addRow({tr.label, schedulePolicyName(pol),
                          TablePrinter::fmt(
                              r.scheduled.evk_bytes / 1e9, 2),
                          TablePrinter::fmt(
                              100.0 * sp.residency.hitRate(), 1),
                          std::to_string(
                              maxEvkInterleave(g, sp.order)),
                          TablePrinter::fmt(
                              r.scheduled.hbm_bytes / 1e9, 2),
                          fmtMs(r.scheduled.seconds, 1),
                          TablePrinter::fmt(r.speedup, 2)});
                json_rows.push_back(
                    {std::string("sched_") + tr.label + "_" +
                         schedulePolicyName(pol),
                     {{"scratchpad_mib", static_cast<size_t>(spad)},
                      {"evk_slots", slots}},
                     {{"speedup_vs_source_order", r.speedup, "x",
                       Better::Higher},
                      {"sim_ms", r.scheduled.seconds * 1e3, "ms",
                       Better::Lower},
                      {"evk_gb", r.scheduled.evk_bytes / 1e9, "GB",
                       Better::Lower}}});

                // The acceptance gate: under pressure, schedule-time
                // key clustering must beat the emission order on the
                // bootstrap-dominated traces.
                const bool gated_trace =
                    std::strcmp(tr.label, "bootstrap") == 0 ||
                    std::strcmp(tr.label, "ResNet-20") == 0;
                if (spad == 384 && gated_trace &&
                    pol == SchedulePolicy::EvkCluster &&
                    !(r.scheduled.evk_bytes < src_evk_bytes)) {
                    std::fprintf(
                        stderr,
                        "bench_scheduler: EvkCluster did not reduce "
                        "evk traffic on %s (%.3g GB vs %.3g GB)\n",
                        tr.label, r.scheduled.evk_bytes / 1e9,
                        src_evk_bytes / 1e9);
                    gate_ok = false;
                }
            }
        }
        t.print();
    }

    // Fig. 2-style view at the pressure point: what each policy does
    // to arithmetic intensity, next to the key-schedule levers.
    {
        const MachineConfig m =
            MachineConfig::arkBase().withScratchpad(384);
        ArkSimulator sim(m, SimAlgo{KeySchedule::MinKS, true});
        const size_t slots = sim.evkSlotCapacity(p);
        TrafficAnalyzer ta(p);
        const AlgoConfig cfg{KeySchedule::MinKS, true};

        header("bootstrap trace on the Fig. 2 axes @ 1 evk slot");
        TablePrinter t({"policy", "evk GB", "pt GB", "Gmults",
                        "ops/byte"});
        const HeGraph g = liftProgram(traces[0].prog);
        for (SchedulePolicy pol : kPolicies) {
            const ScheduledProgram sp = scheduleGraph(g, pol, slots);
            const TrafficPoint pt = ta.analyzeScheduled(sp, cfg);
            t.addRow({schedulePolicyName(pol),
                      TablePrinter::fmt(pt.evk_bytes / 1e9, 2),
                      TablePrinter::fmt(pt.plaintext_bytes / 1e9, 2),
                      TablePrinter::fmt(pt.mod_mults / 1e9, 2),
                      TablePrinter::fmt(pt.opsPerByte(), 2)});
        }
        t.print();
    }

    if (!json_path.empty() &&
        !writeBenchJson(json_path, "bench_scheduler", smoke, gate_ok,
                        json_rows))
        return 1;

    if (!gate_ok) {
        std::fprintf(stderr,
                     "bench_scheduler: policy gate failed\n");
        return 1;
    }
    return 0;
}
