/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every bench prints the paper's reported value next to the value this
 * repository measures/models, so EXPERIMENTS.md can record both. The
 * goal is the paper's shape (who wins, by what factor, where the
 * curves saturate), not bit-exact ASIC numbers.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/table_printer.h"
#include "rns/backend.h"
#include "rns/cpu_features.h"
#include "sim/simulator.h"
#include "workloads/programs.h"

namespace ark {

/**
 * Parse the flags shared by the gated benches: --smoke sets @p smoke,
 * --json PATH sets @p json_path (machine-readable rows for
 * scripts/check_bench_regression.py), and --requests N (N >= 1) sets
 * *@p requests for benches whose request-batch size is tunable (pass
 * nullptr to refuse the flag). *@p requests is left at 0 when the flag
 * is absent — "use the mode default", which each bench's --help
 * documents next to its smoke value. --help/-h prints @p usage and
 * requests exit 0; anything else prints the usage to stderr and
 * requests exit 2. Returns true to continue into the bench; false
 * means main should return @p exit_code immediately.
 */
inline bool
parseBenchArgs(int argc, char **argv, const char *name,
               const char *usage, bool &smoke, std::string &json_path,
               size_t *requests, int &exit_code)
{
    smoke = false;
    json_path.clear();
    if (requests != nullptr)
        *requests = 0;
    exit_code = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (requests != nullptr &&
                   std::strcmp(argv[i], "--requests") == 0 &&
                   i + 1 < argc) {
            u64 v = 0;
            if (!parseU64(argv[++i], 1, SIZE_MAX, v)) {
                std::fprintf(stderr,
                             "%s: --requests wants a positive "
                             "integer, got '%s'\n\n%s",
                             name, argv[i], usage);
                exit_code = 2;
                return false;
            }
            *requests = static_cast<size_t>(v);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::fputs(usage, stdout);
            return false;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n\n%s", name,
                         argv[i], usage);
            exit_code = 2;
            return false;
        }
    }
    return true;
}

/** Which way a metric improves; written as "higher" / "lower". */
enum class Better
{
    Higher,
    Lower
};

/** One named measurement of a row: value, unit and direction. */
struct BenchMetric
{
    std::string key;
    double value = 0;
    const char *unit = "";
    Better better = Better::Higher;
};

/**
 * One machine-readable row of a --json emission:
 * {"name", "params": {key: integer}, "metrics": {key: {"value",
 * "unit", "better"}}}. `name` plus `params` identify the row across
 * runs; scripts/check_bench_regression.py compares every metric the
 * committed baseline row lists, in its own direction.
 */
struct BenchRow
{
    std::string name;
    std::vector<std::pair<std::string, size_t>> params;
    std::vector<BenchMetric> metrics;
};

/**
 * Write @p rows as {"bench", "mode", "simd_tier", "cpu_features",
 * "parity_ok", "results"}. `simd_tier` is the kernel table the
 * default engine dispatches on this host: the checker compares simd_*
 * rows only between runs of the same tier. Returns false (with a
 * message on stderr) if the file can't be written.
 */
inline bool
writeBenchJson(const std::string &path, const char *bench, bool smoke,
               bool parity_ok, const std::vector<BenchRow> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n",
                 simdTierName(KernelBackend().tier()));
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
                 cpuFeatureString().c_str());
    std::fprintf(f, "  \"parity_ok\": %s,\n",
                 parity_ok ? "true" : "false");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const BenchRow &r = rows[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"params\": {",
                     r.name.c_str());
        for (size_t k = 0; k < r.params.size(); ++k)
            std::fprintf(f, "%s\"%s\": %zu", k ? ", " : "",
                         r.params[k].first.c_str(), r.params[k].second);
        std::fprintf(f, "}, \"metrics\": {");
        for (size_t k = 0; k < r.metrics.size(); ++k) {
            const BenchMetric &m = r.metrics[k];
            std::fprintf(f,
                         "%s\"%s\": {\"value\": %.6g, \"unit\": "
                         "\"%s\", \"better\": \"%s\"}",
                         k ? ", " : "", m.key.c_str(), m.value, m.unit,
                         m.better == Better::Higher ? "higher"
                                                    : "lower");
        }
        std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** Run one workload program on one machine/algorithm config. */
inline SimResult
simulate(const SimProgram &prog, const MachineConfig &m,
         const SimAlgo &algo)
{
    return ArkSimulator(m, algo).run(prog);
}

/** Convenience: seconds for a workload under a machine+algorithm. */
inline double
runSeconds(const SimProgram &prog, const MachineConfig &m,
           KeySchedule sched, bool of_limb)
{
    return simulate(prog, m, SimAlgo{sched, of_limb}).seconds;
}

inline std::string
fmtMs(double seconds, int prec = 3)
{
    return TablePrinter::fmt(seconds * 1e3, prec);
}

inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace ark
