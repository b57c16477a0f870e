#include <string>

#include <gtest/gtest.h>

#include "cloud/machine.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "matrix/kernel_config.h"

namespace cumulon {
namespace {

TEST(CostModelTest, GemmSecondsMatchesFlopFormula) {
  TileOpCostModel model;
  model.per_tile_overhead_seconds = 0.0;
  // 2 * 100 * 200 * 50 flops at 1 GFLOP/s.
  EXPECT_DOUBLE_EQ(model.GemmSeconds(100, 200, 50), 2.0e6 / 1e9);
}

TEST(CostModelTest, OverheadDominatesTinyTiles) {
  TileOpCostModel model;
  model.per_tile_overhead_seconds = 1e-3;
  EXPECT_GT(model.GemmSeconds(1, 1, 1), 1e-3);
  EXPECT_LT(model.GemmSeconds(1, 1, 1), 1.1e-3);
}

TEST(CostModelTest, EwAndTransposeScaleLinearly) {
  TileOpCostModel model;
  model.per_tile_overhead_seconds = 0.0;
  EXPECT_DOUBLE_EQ(model.EwSeconds(2'000'000), 2.0 * model.EwSeconds(1'000'000));
  EXPECT_DOUBLE_EQ(model.TransposeSeconds(3'000'000),
                   3.0 * model.TransposeSeconds(1'000'000));
}

TEST(CostModelTest, AccumulateCostsLikeElementwise) {
  TileOpCostModel model;
  EXPECT_DOUBLE_EQ(model.AccumulateSeconds(12345), model.EwSeconds(12345));
}

TEST(CalibrationTest, MeasuresPositiveThroughputs) {
  CalibrationOptions options;
  options.tile_dim = 128;  // keep the probe fast
  options.repetitions = 2;
  auto result = Calibrate(options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->gemm_gflops, 0.0);
  EXPECT_GT(result->ew_gelems, 0.0);
  EXPECT_GT(result->transpose_gelems, 0.0);
}

TEST(CalibrationTest, RecordsTheGemmKernelDispatchRuns) {
  // A stored calibration is reused only on the same kernel, and the two
  // SIMD widths differ by about 2x, so the record names the width.
  CalibrationOptions options;
  options.tile_dim = 32;
  options.repetitions = 1;
  auto dispatched = Calibrate(options);
  ASSERT_TRUE(dispatched.ok());
  std::string expected = "scalar";
  if (SimdKernelAvailable()) {
    expected = CpuSupportsSimdWidth(SimdWidth::kAvx512) ? "avx512" : "avx2";
  }
  EXPECT_EQ(dispatched->kernel, expected);
  options.kernel_mode = KernelMode::kScalar;
  auto scalar = Calibrate(options);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->kernel, "scalar");
}

TEST(CalibrationTest, RejectsDegenerateOptions) {
  CalibrationOptions options;
  options.tile_dim = 4;
  EXPECT_FALSE(Calibrate(options).ok());
  options.tile_dim = 64;
  options.repetitions = 0;
  EXPECT_FALSE(Calibrate(options).ok());
}

TEST(CalibrationTest, ToCostModelPreservesRatios) {
  CalibrationResult r;
  r.gemm_gflops = 4.0;
  r.ew_gelems = 1.0;
  r.transpose_gelems = 0.5;
  TileOpCostModel model = r.ToCostModel();
  EXPECT_DOUBLE_EQ(model.ew_gelems_per_sec, 0.25);
  EXPECT_DOUBLE_EQ(model.transpose_gelems_per_sec, 0.125);
}

TEST(CalibrationTest, ToHostProfileUsesMeasuredGflops) {
  CalibrationResult r;
  r.gemm_gflops = 3.5;
  MachineProfile host = r.ToHostProfile(4);
  EXPECT_EQ(host.cores, 4);
  EXPECT_DOUBLE_EQ(host.cpu_gflops, 3.5);
  EXPECT_EQ(host.price_per_hour, 0.0);
}

// ---------------------------------------------------------------------------
// Machine catalog & pricing
// ---------------------------------------------------------------------------

TEST(MachineCatalogTest, ContainsExpectedFamilies) {
  const auto& catalog = MachineCatalog();
  EXPECT_GE(catalog.size(), 4u);
  EXPECT_TRUE(FindMachine("m1.small").ok());
  EXPECT_TRUE(FindMachine("c1.xlarge").ok());
  EXPECT_EQ(FindMachine("nonexistent").status().code(),
            StatusCode::kNotFound);
}

TEST(MachineCatalogTest, PricesIncreaseWithSize) {
  auto small = FindMachine("m1.small");
  auto xlarge = FindMachine("m1.xlarge");
  ASSERT_TRUE(small.ok() && xlarge.ok());
  EXPECT_LT(small->price_per_hour, xlarge->price_per_hour);
  EXPECT_LT(small->cores, xlarge->cores);
}

TEST(MachineCatalogTest, HighCpuFamilyHasBetterComputePerDollar) {
  auto m1 = FindMachine("m1.xlarge");
  auto c1 = FindMachine("c1.xlarge");
  ASSERT_TRUE(m1.ok() && c1.ok());
  const double m1_gflops_per_dollar =
      m1->cores * m1->cpu_gflops / m1->price_per_hour;
  const double c1_gflops_per_dollar =
      c1->cores * c1->cpu_gflops / c1->price_per_hour;
  EXPECT_GT(c1_gflops_per_dollar, m1_gflops_per_dollar);
}

TEST(PricingTest, HourlyQuantumRoundsUp) {
  MachineProfile m;
  m.price_per_hour = 1.0;
  BillingPolicy hourly;  // 3600 s quantum
  EXPECT_DOUBLE_EQ(ClusterDollarCost(m, 1, 1.0, hourly), 1.0);
  EXPECT_DOUBLE_EQ(ClusterDollarCost(m, 1, 3600.0, hourly), 1.0);
  EXPECT_DOUBLE_EQ(ClusterDollarCost(m, 1, 3601.0, hourly), 2.0);
  EXPECT_DOUBLE_EQ(ClusterDollarCost(m, 4, 1800.0, hourly), 4.0);
}

TEST(PricingTest, PerSecondBillingIsProportional) {
  MachineProfile m;
  m.price_per_hour = 3.6;
  BillingPolicy per_second;
  per_second.quantum_seconds = 1.0;
  EXPECT_NEAR(ClusterDollarCost(m, 1, 1000.0, per_second), 1.0, 1e-9);
  EXPECT_NEAR(ClusterDollarCost(m, 2, 500.0, per_second), 1.0, 1e-9);
}

TEST(PricingTest, MinimumChargeApplies) {
  MachineProfile m;
  m.price_per_hour = 1.0;
  BillingPolicy policy;
  policy.quantum_seconds = 1.0;
  policy.minimum_seconds = 60.0;
  EXPECT_NEAR(ClusterDollarCost(m, 1, 5.0, policy), 60.0 / 3600.0, 1e-12);
}

}  // namespace
}  // namespace cumulon
