/**
 * @file
 * Tests for the ARK cycle simulator and workload generators: paper
 * Fig. 7/8/9 shape properties, power/area model targets (Table IV),
 * and internal invariants (causality, traffic accounting).
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/simulator.h"
#include "workloads/programs.h"

namespace ark {
namespace {

class SimTest : public ::testing::Test
{
  protected:
    static double seconds(const SimProgram &prog, const MachineConfig &m,
                          KeySchedule sched, bool of_limb)
    {
        return ArkSimulator(m, {sched, of_limb}).run(prog).seconds;
    }
};

TEST_F(SimTest, AlgorithmsSpeedUpBootstrapping)
{
    auto p = CkksParams::ark();
    auto m = MachineConfig::arkBase();
    double base = seconds(bootstrapProgram(p, KeySchedule::Baseline), m,
                          KeySchedule::Baseline, false);
    double minks = seconds(bootstrapProgram(p, KeySchedule::MinKS), m,
                           KeySchedule::MinKS, false);
    double both = seconds(bootstrapProgram(p, KeySchedule::MinKS), m,
                          KeySchedule::MinKS, true);
    EXPECT_GT(base / minks, 1.5); // Min-KS is the big lever
    EXPECT_GT(minks / both, 1.05); // OF-Limb adds on top (paper 1.29x)
    // Total speedup near the paper's 2.36x.
    EXPECT_NEAR(base / both, 2.36, 0.6);
    // Absolute time in the paper's regime (~3.5-4 ms).
    EXPECT_GT(both, 1e-3);
    EXPECT_LT(both, 8e-3);
}

TEST_F(SimTest, HalfScratchpadSlowsDown)
{
    auto p = CkksParams::ark();
    auto prog = bootstrapProgram(p, KeySchedule::Baseline);
    double full = seconds(prog, MachineConfig::arkBase(),
                          KeySchedule::Baseline, false);
    double half = seconds(
        prog, MachineConfig::arkBase().withScratchpad(256),
        KeySchedule::Baseline, false);
    EXPECT_GT(half / full, 1.15); // paper: 1.34x
    EXPECT_LT(half / full, 2.0);
}

TEST_F(SimTest, DoubleHbmHelpsHelrMost)
{
    auto p = CkksParams::ark();
    auto base = MachineConfig::arkBase();
    auto hbm2 = MachineConfig::doubleHbm();

    auto boot_prog = bootstrapProgram(p, KeySchedule::MinKS);
    auto helr_prog = helrProgram(p, KeySchedule::MinKS, 1);
    double boot_gain =
        seconds(boot_prog, base, KeySchedule::MinKS, true) /
        seconds(boot_prog, hbm2, KeySchedule::MinKS, true);
    double helr_gain =
        seconds(helr_prog, base, KeySchedule::MinKS, true) /
        seconds(helr_prog, hbm2, KeySchedule::MinKS, true);
    // Paper: bootstrapping 1.07x, HELR 1.47x (irregular rotations).
    EXPECT_LT(boot_gain, 1.15);
    EXPECT_GT(helr_gain, 1.15);
    EXPECT_GT(helr_gain, boot_gain);
}

TEST_F(SimTest, LimbWiseOnlyDistributionDegrades)
{
    auto p = CkksParams::ark();
    for (const SimProgram &prog : {resnetProgram(p, KeySchedule::MinKS),
                                   sortingProgram(p, KeySchedule::MinKS)}) {
        double alt = seconds(prog, MachineConfig::altDataDistribution(),
                             KeySchedule::MinKS, true);
        double base = seconds(prog, MachineConfig::arkBase(),
                              KeySchedule::MinKS, true);
        double rel = base / alt;
        EXPECT_GT(rel, 0.60); // paper range 0.67-0.85
        EXPECT_LT(rel, 0.95);
    }
}

TEST_F(SimTest, MacSweepSaturatesAtSix)
{
    auto p = CkksParams::ark();
    auto prog = resnetProgram(p, KeySchedule::MinKS);
    double t1 = seconds(prog, MachineConfig::arkBase().withMacs(1),
                        KeySchedule::MinKS, true);
    double t6 = seconds(prog, MachineConfig::arkBase().withMacs(6),
                        KeySchedule::MinKS, true);
    double t8 = seconds(prog, MachineConfig::arkBase().withMacs(8),
                        KeySchedule::MinKS, true);
    EXPECT_GT(t1 / t6, 1.2);         // paper: 1.72x for ResNet-20
    EXPECT_LT(t6 / t8 - 1.0, 0.02);  // <1% beyond six MACs
}

TEST_F(SimTest, ScratchpadSweepSaturates)
{
    auto p = CkksParams::ark();
    auto prog = resnetProgram(p, KeySchedule::MinKS);
    double t192 = seconds(prog,
                          MachineConfig::arkBase().withScratchpad(192),
                          KeySchedule::MinKS, true);
    double t512 = seconds(prog,
                          MachineConfig::arkBase().withScratchpad(512),
                          KeySchedule::MinKS, true);
    double t576 = seconds(prog,
                          MachineConfig::arkBase().withScratchpad(576),
                          KeySchedule::MinKS, true);
    EXPECT_GT(t192 / t512, 1.3);        // paper: 2.42x for ResNet-20
    EXPECT_LT(t512 / t576 - 1.0, 0.05); // saturation
}

TEST_F(SimTest, EvkCacheAccounting)
{
    auto p = CkksParams::ark();
    auto prog = bootstrapProgram(p, KeySchedule::MinKS);
    auto r = ArkSimulator(MachineConfig::arkBase(),
                          {KeySchedule::MinKS, true})
                 .run(prog);
    // Min-KS reuses keys heavily: hits must dominate.
    EXPECT_GT(r.evk_hits, r.evk_misses);
    EXPECT_EQ(r.evk_hits + r.evk_misses,
              static_cast<double>(prog.count(SimOpKind::KeySwitch)));
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.hbm_bytes, 0.0);
}

TEST_F(SimTest, PowerWithinPaperBand)
{
    auto p = CkksParams::ark();
    for (auto sched : {KeySchedule::Baseline, KeySchedule::MinKS}) {
        auto r = ArkSimulator(MachineConfig::arkBase(), {sched, true})
                     .run(bootstrapProgram(p, sched));
        // Paper: 100-135 W across workloads, < 281.3 W peak.
        EXPECT_GT(r.avg_power_w, 80.0);
        EXPECT_LT(r.avg_power_w, 180.0);
    }
}

TEST(ChipModel, Table4Totals)
{
    ChipCost chip = chipCost(MachineConfig::arkBase());
    EXPECT_NEAR(chip.totalArea(), 418.3, 0.1);
    EXPECT_NEAR(chip.totalPeakPower(), 281.3, 0.1);
    // 2x clusters: paper reports 1.39x area and 2.71x NoC power.
    ChipCost twoc = chipCost(MachineConfig::doubleClusters());
    EXPECT_NEAR(twoc.totalArea() / chip.totalArea(), 1.39, 0.06);
    EXPECT_NEAR(twoc.component("NoC").peak_w /
                    chip.component("NoC").peak_w, 2.71, 0.05);
}

TEST(Workloads, ProgramShapes)
{
    auto p = CkksParams::ark();
    auto boot = bootstrapProgram(p, KeySchedule::MinKS);
    EXPECT_GT(boot.count(SimOpKind::KeySwitch), 80u);
    EXPECT_GT(boot.count(SimOpKind::PMult), 250u); // 2 H-(I)DFTs

    auto helr = helrProgram(p, KeySchedule::MinKS, 2);
    auto helr1 = helrProgram(p, KeySchedule::MinKS, 1);
    EXPECT_EQ(helr.ops.size(), 2 * helr1.ops.size());

    auto resnet = resnetProgram(p, KeySchedule::MinKS);
    EXPECT_GT(resnet.ops.size(), 10000u); // 40 bootstraps + convs

    // Baseline schedules reference more distinct evks than Min-KS.
    auto count_ids = [](const SimProgram &prog) {
        std::set<int> ids;
        for (const auto &op : prog.ops) {
            if (op.evk_id >= 0)
                ids.insert(op.evk_id);
        }
        return ids.size();
    };
    EXPECT_GT(count_ids(bootstrapProgram(p, KeySchedule::Baseline)),
              count_ids(bootstrapProgram(p, KeySchedule::MinKS)));
}

} // namespace
} // namespace ark
