/**
 * @file
 * arkbench: runs one benchmark workload and prints its metrics.
 *
 *   arkbench --workload boot|serve|wire --seed N --seconds S --trace 0|1
 *            [--trace-out PATH]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 0 the metrics
 * are the end-to-end ones; with --trace 1 the per-layer ones, with
 * the spans written to --trace-out. The exit code is 0 only when every
 * request's output was correct and, on a traced run, the self-time
 * table closed and the workload stressed the layer it is built for.
 *
 * The program's runtime switches are all ARK_* environment variables
 * (engine, threads, ISA tier, tracing, metrics, fault plane, arrival
 * process, SLO admission, watchdog); the benchmark pins them in code,
 * so it refuses to run with any of them set.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "rns/backend.h"
#include "workloads.h"

extern char **environ;

namespace arkbench {
namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_rps", "1/s"}, {"peak_rss_mib", "MiB"},
    {"precision_bits", "bits"}, {"ok_share", "fraction"},
};

/** Every per-layer metric; a workload that bypasses a layer leaves
 *  its metrics at 0. */
const MetricSpec kPerLayer[] = {
    {"rns.ntt_fwd_us", "us"},
    {"rns.ntt_inv_us", "us"},
    {"rns.bconv_us", "us"},
    {"rns.ntt_bconv_ntt_us", "us"},
    {"rns.evk_mac_us", "us"},
    {"rns.automorphism_us", "us"},
    {"rns.kernel_calls_per_req", "count"},
    {"rns.mwords_per_req", "Mword"},
    {"rns.evk_mib_per_req", "MiB"},
    {"rns.pt_mib_per_req", "MiB"},
    {"rns.kernel_share", "fraction"},
    {"ckks.hmult_ms", "ms"},
    {"ckks.hrot_ms", "ms"},
    {"ckks.pmult_ms", "ms"},
    {"ckks.rescale_ms", "ms"},
    {"ckks.he_ops_per_req", "count"},
    {"boot.modraise_ms", "ms"},
    {"boot.evalmod_ms", "ms"},
    {"boot.transforms_ms", "ms"},
    {"boot.rotations", "count"},
    {"boot.distinct_evks", "count"},
    {"boot.pmults", "count"},
    {"boot.evk_resident_mib", "MiB"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.worker_busy_share", "fraction"},
    {"serve.scaling_2w", "ratio"},
    {"serve.failed", "count"},
    {"serve.refused", "count"},
    {"wire.write_ct_ms", "ms"},
    {"wire.read_ct_ms", "ms"},
    {"wire.frame_kib", "KiB"},
    {"net.overhead_ms_p50", "ms"},
    {"net.unattributed_ms", "ms"},
    {"net.retries", "count"},
    {"net.reconnects", "count"},
    {"trace.overhead_share", "fraction"},
    {"trace.unattributed_share", "fraction"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "arkbench: %s\nusage: arkbench --workload boot|serve|wire "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (key == "--trace-out") {
            opt.trace_out = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

/** Refuse every ARK_* runtime switch: the benchmark pins them. */
void
refuseArkEnvironment()
{
    bool any = false;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "ARK_", 4) == 0) {
            std::fprintf(stderr, "arkbench: refusing to run with %s set\n", *e);
            any = true;
        }
    }
    if (any)
        std::exit(2);
}

void
printStamp(const Options &opt, const RunResult &r)
{
    ark::SimdBackend simd;
    std::printf("# arkbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("# engine=simd simd_tier=%s nproc=%u threads=%zu\n",
                ark::simdTierName(simd.tier()), std::thread::hardware_concurrency(),
                r.threads);
    std::printf("# cpu_features=%s\n", ark::cpuFeatureString().c_str());
}

} // namespace
} // namespace arkbench

int
main(int argc, char **argv)
{
    using namespace arkbench;
    refuseArkEnvironment();
    const Options opt = parseArgs(argc, argv);

    SpanLog log;
    RunResult r;
    if (opt.workload == "boot")
        r = runBoot(opt, log);
    else if (opt.workload == "serve")
        r = runServe(opt, log);
    else if (opt.workload == "wire")
        r = runWire(opt, log);
    else
        usage(("unknown workload " + opt.workload).c_str());

    if (opt.trace && !opt.trace_out.empty() && !log.write(opt.trace_out)) {
        std::fprintf(stderr, "arkbench: cannot write spans to %s\n", opt.trace_out.c_str());
        return 1;
    }

    std::map<std::string, double> got;
    for (const Metric &m : r.metrics)
        got[m.name] = m.value;
    const MetricSpec *first = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
    const MetricSpec *last = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    bool sound = true; // every value finite, every produced name declared
    std::string metrics;
    char buf[256];
    for (const MetricSpec *m = first; m != last; ++m) {
        auto it = got.find(m->name);
        const double v = it == got.end() ? 0.0 : it->second;
        if (it != got.end())
            got.erase(it);
        sound = sound && std::isfinite(v);
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m->name, std::isfinite(v) ? v : 0.0,
                      m->unit);
        metrics += buf;
    }
    for (const auto &[name, value] : got) {
        std::fprintf(stderr, "arkbench: undeclared metric %s\n", name.c_str());
        sound = false;
    }

    printStamp(opt, r);
    for (const std::string &line : r.notes)
        std::printf("# %s\n", line.c_str());
    if (!r.checks_hold)
        std::fprintf(stderr, "arkbench: the traced run's closure or stress check failed\n");
    const bool correct = sound && r.checks_hold && r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
