/**
 * @file
 * Tests for the experiment runner and report rendering.
 */

#include <gtest/gtest.h>

#include "machine/configs.hh"
#include "report/deviation.hh"
#include "report/interconnect.hh"
#include "report/table.hh"
#include "workload/kernels.hh"

namespace cams
{
namespace
{

TEST(DeviationSeries, Percentages)
{
    DeviationSeries series;
    series.label = "s";
    for (int i = 0; i < 8; ++i)
        series.deviations.add(0);
    series.deviations.add(1);
    series.failures = 1;
    EXPECT_EQ(series.loops(), 10);
    EXPECT_DOUBLE_EQ(series.percentAt(0), 80.0);
    EXPECT_DOUBLE_EQ(series.percentAtMost(1), 90.0);
}

TEST(Runner, KernelsOnTwoClusters)
{
    const auto suite = allKernels();
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const auto baseline =
        unifiedBaseline(suite, machine.unifiedEquivalent());
    ASSERT_EQ(baseline.size(), suite.size());
    for (int ii : baseline)
        EXPECT_GE(ii, 1);

    const DeviationSeries series = runClusteredSeries(
        suite, machine, baseline, CompileOptions{}, "kernels");
    EXPECT_EQ(series.loops(), static_cast<int>(suite.size()));
    EXPECT_EQ(series.failures, 0);
    // All kernels match the unified II on this machine, so both II
    // sums equal the baseline's.
    EXPECT_DOUBLE_EQ(series.percentAt(0), 100.0);
    long baselineSum = 0;
    for (int ii : baseline)
        baselineSum += ii;
    EXPECT_EQ(series.unifiedIiSum, baselineSum);
    EXPECT_EQ(series.iiSum, baselineSum);
}

TEST(TextTable, AlignedRendering)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "23"});
    const std::string text = table.render();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH({ table.addRow({"only-one"}); }, "row width");
}

TEST(Interconnect, UnifiedMachineHasNoTraffic)
{
    const MachineDesc machine = unifiedGpMachine(8);
    const ResourceModel model(machine);
    const CompileResult result =
        compileUnified(kernelHydro(), machine);
    ASSERT_TRUE(result.success);
    const InterconnectStats stats = computeInterconnectStats(
        result.loop, result.schedule, model);
    EXPECT_EQ(stats.copies, 0);
    EXPECT_EQ(stats.busUtilization, 0.0);
    EXPECT_EQ(stats.readPortUtilization, 0.0);
}

TEST(Interconnect, CopiesShowUpOnTheBus)
{
    const MachineDesc machine = busedGpMachine(2, 2, 1);
    const ResourceModel model(machine);
    const CompileResult result =
        compileClustered(kernelFir4(), machine);
    ASSERT_TRUE(result.success);
    ASSERT_GT(result.copies, 0);
    const InterconnectStats stats = computeInterconnectStats(
        result.loop, result.schedule, model);
    EXPECT_EQ(stats.copies, result.copies);
    EXPECT_GT(stats.busUtilization, 0.0);
    EXPECT_LE(stats.busUtilization, 1.0);
    // Every broadcast copy uses one bus slot: utilization is exactly
    // copies / (buses * II).
    EXPECT_DOUBLE_EQ(stats.busUtilization,
                     static_cast<double>(result.copies) /
                         (2.0 * result.ii));
    EXPECT_GT(stats.readPortUtilization, 0.0);
    EXPECT_GT(stats.writePortUtilization, 0.0);
}

TEST(Interconnect, GridReportsPerLink)
{
    const MachineDesc grid = gridMachine();
    const ResourceModel model(grid);
    const CompileResult result =
        compileClustered(kernelStateEquation(), grid);
    ASSERT_TRUE(result.success);
    const InterconnectStats stats = computeInterconnectStats(
        result.loop, result.schedule, model);
    ASSERT_EQ(stats.linkUtilization.size(), grid.links.size());
    double total = 0.0;
    for (double link : stats.linkUtilization) {
        EXPECT_GE(link, 0.0);
        EXPECT_LE(link, 1.0);
        total += link;
    }
    if (result.copies > 0) {
        EXPECT_GT(total, 0.0);
    }
}

TEST(Figure, RenderContainsSeriesAndBuckets)
{
    DeviationSeries series;
    series.label = "heuristic-iterative";
    series.deviations.add(0, 97);
    series.deviations.add(1, 2);
    series.deviations.add(5, 1);
    const std::string text =
        renderDeviationFigure("Figure 12", {series});
    EXPECT_NE(text.find("Figure 12"), std::string::npos);
    EXPECT_NE(text.find("heuristic-iterative"), std::string::npos);
    EXPECT_NE(text.find("97.0"), std::string::npos);
    EXPECT_NE(text.find("x=0"), std::string::npos);
}

} // namespace
} // namespace cams
