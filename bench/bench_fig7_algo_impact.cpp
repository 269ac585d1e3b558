/**
 * @file
 * Reproduces paper Fig. 7: execution time of bootstrapping and of the
 * HELR / ResNet-20 / sorting workloads while enabling the algorithmic
 * optimizations incrementally (baseline with half SRAM, baseline,
 * +Min-KS, +Min-KS+OF-Limb).
 *
 * Paper targets: bootstrapping speedups 2.36x total (Min-KS 2.61x on
 * H-IDFT, OF-Limb a further 1.29x); workload speedups 1.72x (HELR),
 * 2.20x (ResNet-20), 2.08x (sorting); halving the scratchpad costs
 * 1.34x on the baseline and 1.83x with both algorithms on
 * (bootstrapping).
 */

#include "bench_util.h"

using namespace ark;

namespace {

struct Config
{
    const char *name;
    KeySchedule sched;
    bool of_limb;
    double spad_mib;
};

const Config kConfigs[] = {
    {"Baseline (1/2 SRAM)", KeySchedule::Baseline, false, 256},
    {"Baseline", KeySchedule::Baseline, false, 512},
    {"Min-KS", KeySchedule::MinKS, false, 512},
    {"Min-KS + OF-Limb", KeySchedule::MinKS, true, 512},
};

} // namespace

int
main()
{
    const auto params = CkksParams::ark();

    header("Fig. 7(a): bootstrapping under incremental optimizations");
    {
        TablePrinter t({"Config", "Time (ms)", "Speedup vs baseline"});
        double base_s = 0;
        for (const auto &cfg : kConfigs) {
            auto prog = bootstrapProgram(params, cfg.sched);
            MachineConfig m = MachineConfig::arkBase().withScratchpad(
                cfg.spad_mib);
            double s = runSeconds(prog, m, cfg.sched, cfg.of_limb);
            if (std::string(cfg.name) == "Baseline")
                base_s = s;
            t.addRow({cfg.name, fmtMs(s),
                      base_s > 0 ? TablePrinter::fmt(base_s / s, 2)
                                 : "-"});
        }
        t.print();
        std::printf("paper: Min-KS 2.61x on H-IDFT, total boot speedup "
                    "2.36x; 1/2 SRAM slows baseline 1.34x, optimized "
                    "1.83x\n");
    }

    header("Fig. 7(b): workloads under incremental optimizations");
    {
        TablePrinter t({"Workload", "Config", "Time (ms)", "Speedup"});
        struct W
        {
            const char *name;
            SimProgram (*make)(const CkksParams &, KeySchedule);
            double paper_speedup;
        };
        auto helr1 = [](const CkksParams &p, KeySchedule s) {
            return helrProgram(p, s, 1);
        };
        auto resnet = [](const CkksParams &p, KeySchedule s) {
            return resnetProgram(p, s);
        };
        auto sorting = [](const CkksParams &p, KeySchedule s) {
            return sortingProgram(p, s);
        };
        const W workloads[] = {
            {"HELR (1 iter)", +helr1, 1.72},
            {"ResNet-20", +resnet, 2.20},
            {"Sorting", +sorting, 2.08},
        };
        for (const auto &w : workloads) {
            double base_s = 0;
            for (const auto &cfg : kConfigs) {
                auto prog = w.make(params, cfg.sched);
                MachineConfig m =
                    MachineConfig::arkBase().withScratchpad(
                        cfg.spad_mib);
                double s = runSeconds(prog, m, cfg.sched, cfg.of_limb);
                if (std::string(cfg.name) == "Baseline")
                    base_s = s;
                t.addRow({w.name, cfg.name, fmtMs(s),
                          base_s > 0 ? TablePrinter::fmt(base_s / s, 2)
                                     : "-"});
            }
            std::printf("paper speedup for %s: %.2fx\n", w.name,
                        w.paper_speedup);
        }
        t.print();
    }
    return 0;
}
