#include <gtest/gtest.h>

#include "lang/logical_optimizer.h"
#include "lang/programs.h"
#include "opt/job_tuner.h"
#include "opt/predictor.h"

namespace cumulon {
namespace {

ClusterConfig MidCluster() {
  auto machine = FindMachine("m1.large");
  CUMULON_CHECK(machine.ok());
  return ClusterConfig{machine.value(), 16, 2};
}

TEST(TunerTest, SquareMultiplyAvoidsDeepSplitK) {
  // 16x16 tile grid: plenty of (i,j) parallelism; split-k only adds merge
  // cost, so the tuned bk should cover all of k (or most of it).
  TileLayout a(32768, 32768, 2048, 2048);
  TileLayout b(32768, 32768, 2048, 2048);
  TileOpCostModel cost;
  auto tuned = TuneMatMulParams(a, b, MidCluster(), cost, TuneOptions{});
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_GT(tuned->feasible_candidates, 0);
  const int64_t gk = a.grid_cols();
  const int64_t bk = tuned->params.bk <= 0 ? gk : tuned->params.bk;
  EXPECT_GE(bk, gk / 2);
}

TEST(TunerTest, DeepMultiplyPrefersSplitK) {
  // 4x4 output grid but 64 k-tiles: without split-k only 16 tasks exist
  // for 32 slots; the tuner must split k to parallelize.
  TileLayout a(8192, 131072, 2048, 2048);
  TileLayout b(131072, 8192, 2048, 2048);
  TileOpCostModel cost;
  auto tuned = TuneMatMulParams(a, b, MidCluster(), cost, TuneOptions{});
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  const int64_t gk = a.grid_cols();
  const int64_t bk = tuned->params.bk <= 0 ? gk : tuned->params.bk;
  EXPECT_LT(bk, gk);
}

TEST(TunerTest, TunedBeatsOrMatchesEveryFixedCandidate) {
  TileLayout a(16384, 65536, 2048, 2048);
  TileLayout b(65536, 16384, 2048, 2048);
  TileOpCostModel cost;
  TuneOptions options;
  auto tuned = TuneMatMulParams(a, b, MidCluster(), cost, options);
  ASSERT_TRUE(tuned.ok());
  for (const MatMulParams& candidate : DefaultMatMulCandidates()) {
    options.candidates = {candidate};
    auto single = TuneMatMulParams(a, b, MidCluster(), cost, options);
    if (!single.ok()) continue;  // rejected by memory
    EXPECT_LE(tuned->predicted_seconds, single->predicted_seconds + 1e-9);
  }
}

TEST(TunerTest, RejectsIncompatibleLayouts) {
  TileLayout a(100, 100, 10, 10);
  TileLayout b(99, 100, 10, 10);
  TileOpCostModel cost;
  EXPECT_FALSE(TuneMatMulParams(a, b, MidCluster(), cost, TuneOptions{}).ok());
}

// ---------------------------------------------------------------------------
// Memory constraints
// ---------------------------------------------------------------------------

TEST(MemoryTest, TaskMemoryGrowsWithBlocks) {
  TileLayout a(32768, 32768, 2048, 2048);
  TileLayout b(32768, 32768, 2048, 2048);
  const int64_t small = MatMulJob::TaskMemoryBytes(a, b, MatMulParams{1, 1, 1});
  const int64_t big = MatMulJob::TaskMemoryBytes(a, b, MatMulParams{4, 4, 0});
  EXPECT_LT(small, big);
  // 1x1x1: one A tile + one B tile + one C tile = 3 * 32 MiB.
  EXPECT_EQ(small, 3 * 2048 * 2048 * 8);
}

TEST(MemoryTest, SlotMemorySharedAmongSlots) {
  ClusterConfig cluster = MidCluster();  // m1.large: 7.5 GB, 2 slots
  const double per_slot = SlotMemoryBytes(cluster);
  EXPECT_NEAR(per_slot,
              cluster.machine.memory_bytes() / 2 * kTaskMemoryFraction, 1.0);
}

TEST(MemoryTest, TinyMemoryRejectsAllCandidates) {
  TileLayout a(32768, 32768, 2048, 2048);  // 32 MiB tiles
  TileLayout b(32768, 32768, 2048, 2048);
  ClusterConfig cluster = MidCluster();
  cluster.machine.memory_mb = 64.0;  // < one task's 3-tile working set
  TileOpCostModel cost;
  auto tuned = TuneMatMulParams(a, b, cluster, cost, TuneOptions{});
  ASSERT_FALSE(tuned.ok());
  EXPECT_EQ(tuned.status().code(), StatusCode::kResourceExhausted);
}

TEST(MemoryTest, ScarceMemoryFiltersBigBlocks) {
  TileLayout a(32768, 32768, 2048, 2048);
  TileLayout b(32768, 32768, 2048, 2048);
  ClusterConfig cluster = MidCluster();
  // Room for ~6 tiles per slot (2 slots): blocks like 4x4xfull-k (256+
  // tiles) must be rejected, small splits accepted.
  cluster.machine.memory_mb = 400.0;
  TileOpCostModel cost;
  auto tuned = TuneMatMulParams(a, b, cluster, cost, TuneOptions{});
  ASSERT_TRUE(tuned.ok()) << tuned.status();
  EXPECT_GT(tuned->rejected_by_memory, 0);
  EXPECT_LE(MatMulJob::TaskMemoryBytes(a, b, tuned->params),
            SlotMemoryBytes(cluster));
}

// ---------------------------------------------------------------------------
// Predictor integration
// ---------------------------------------------------------------------------

ProgramSpec DeepChainSpec() {
  // A single deep multiply where tuning matters a lot.
  Program p;
  p.Assign("C", Expr::Input("A", 8192, 131072) *
                    Expr::Input("B", 131072, 8192));
  ProgramSpec spec;
  spec.program = std::move(p);
  spec.inputs = {
      {"A", TileLayout::Square(8192, 131072, 2048)},
      {"B", TileLayout::Square(131072, 8192, 2048)},
  };
  return spec;
}

TEST(TunerIntegrationTest, TunedPredictionNoWorseThanDefault) {
  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  auto untuned = PredictProgram(DeepChainSpec(), MidCluster(), options);
  ASSERT_TRUE(untuned.ok());
  options.tune_mm_per_job = true;
  auto tuned = PredictProgram(DeepChainSpec(), MidCluster(), options);
  ASSERT_TRUE(tuned.ok());
  EXPECT_LE(tuned->seconds, untuned->seconds * 1.01);
  // On this deep shape tuning should win decisively.
  EXPECT_LT(tuned->seconds, untuned->seconds * 0.8);
}

TEST(TunerIntegrationTest, TuningIsDeterministic) {
  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  options.tune_mm_per_job = true;
  auto p1 = PredictProgram(DeepChainSpec(), MidCluster(), options);
  auto p2 = PredictProgram(DeepChainSpec(), MidCluster(), options);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_DOUBLE_EQ(p1->seconds, p2->seconds);
}

}  // namespace
}  // namespace cumulon
