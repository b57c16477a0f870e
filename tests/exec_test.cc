#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

/// Harness: a tiny real cluster over an in-memory store, plus reference
/// dense matrices to verify against.
class ExecTest : public ::testing::Test {
 protected:
  ExecTest()
      : engine_(ClusterConfig{MachineProfile{}, 2, 2}, RealEngineOptions{}),
        executor_(&store_, &engine_, &cost_, ExecutorOptions{}) {}

  /// Creates a Gaussian matrix in both tiled and dense form.
  DenseMatrix MakeInput(const TiledMatrix& m) {
    DenseMatrix dense = DenseMatrix::Gaussian(m.layout.rows(),
                                              m.layout.cols(), &rng_);
    CUMULON_CHECK(StoreDense(dense, m, &store_).ok());
    return dense;
  }

  /// Loads a tiled matrix and compares against a dense reference.
  void ExpectMatches(const TiledMatrix& m, const DenseMatrix& expected,
                     double tol = 1e-9) {
    auto loaded = LoadDense(m, &store_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto diff = expected.MaxAbsDiff(*loaded);
    ASSERT_TRUE(diff.ok()) << diff.status();
    EXPECT_LT(diff.value(), tol);
  }

  Rng rng_{42};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_;
  Executor executor_;
};

// ---------------------------------------------------------------------------
// MatMulJob correctness
// ---------------------------------------------------------------------------

/// Parameterized over (m, k, n, tile, bi, bj, bk) to sweep shapes and split
/// parameters, including ragged edges and split-k with SumJob merging.
class MatMulParamTest
    : public ExecTest,
      public ::testing::WithParamInterface<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int64_t,
                     int64_t>> {};

TEST_P(MatMulParamTest, ComputesProduct) {
  const auto [m, k, n, tile, bi, bj, bk] = GetParam();
  TiledMatrix a{"A", TileLayout::Square(m, k, tile)};
  TiledMatrix b{"B", TileLayout::Square(k, n, tile)};
  TiledMatrix c{"C", TileLayout::Square(m, n, tile)};
  DenseMatrix da = MakeInput(a);
  DenseMatrix db = MakeInput(b);

  PhysicalPlan plan;
  ASSERT_TRUE(
      AddMatMul(a, b, c, MatMulParams{bi, bj, bk}, {}, &plan).ok());
  auto stats = executor_.Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto expected = da.Multiply(db);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(c, *expected);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSplits, MatMulParamTest,
    ::testing::Values(
        // m, k, n, tile, bi, bj, bk
        std::make_tuple(16, 16, 16, 16, 1, 1, 0),   // single tile
        std::make_tuple(32, 32, 32, 16, 1, 1, 0),   // 2x2 grid
        std::make_tuple(40, 24, 56, 16, 1, 1, 0),   // ragged edges
        std::make_tuple(48, 48, 48, 16, 2, 2, 0),   // blocked tasks
        std::make_tuple(48, 48, 48, 16, 3, 1, 0),   // asymmetric blocks
        std::make_tuple(32, 64, 32, 16, 1, 1, 1),   // split-k: 4 partials
        std::make_tuple(32, 64, 32, 16, 1, 1, 2),   // split-k: 2 partials
        std::make_tuple(40, 72, 24, 16, 2, 1, 2),   // split-k + blocks+ragged
        std::make_tuple(16, 80, 16, 16, 1, 1, 5),   // bk == gk: no split
        std::make_tuple(8, 8, 8, 16, 4, 4, 9)));    // params exceed grid

TEST_F(ExecTest, MatMulRejectsMismatchedInnerDims) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(24, 16, 8)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 8)};
  MakeInput(a);
  MakeInput(b);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(ExecTest, MatMulRejectsMisalignedTileGrids) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 4)};  // tile_rows 4 != 8
  TiledMatrix c{"C", TileLayout::Square(16, 16, 8)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(ExecTest, MatMulRejectsWrongOutputLayout) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 8)};
  TiledMatrix c{"C", TileLayout::Square(16, 20, 8)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(ExecTest, SplitKCreatesSumJobAndTemporaries) {
  TiledMatrix a{"A", TileLayout::Square(16, 64, 16)};
  TiledMatrix b{"B", TileLayout::Square(64, 16, 16)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 16)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{1, 1, 1}, {}, &plan).ok());
  EXPECT_EQ(plan.jobs.size(), 2u);  // multiply + sum
  EXPECT_EQ(plan.temporaries.size(), 4u);  // 4 k-splits
}

TEST_F(ExecTest, TemporariesAreDroppedAfterRun) {
  TiledMatrix a{"A", TileLayout::Square(16, 32, 16)};
  TiledMatrix b{"B", TileLayout::Square(32, 16, 16)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 16)};
  MakeInput(a);
  MakeInput(b);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{1, 1, 1}, {}, &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  // Partials gone, result present.
  EXPECT_FALSE(store_.Get("C#k0", TileId{0, 0}, -1).ok());
  EXPECT_TRUE(store_.Get("C", TileId{0, 0}, -1).ok());
}

// ---------------------------------------------------------------------------
// Fused epilogues
// ---------------------------------------------------------------------------

TEST_F(ExecTest, MatMulWithUnaryEpilogue) {
  TiledMatrix a{"A", TileLayout::Square(24, 24, 8)};
  TiledMatrix b{"B", TileLayout::Square(24, 24, 8)};
  TiledMatrix c{"C", TileLayout::Square(24, 24, 8)};
  DenseMatrix da = MakeInput(a), db = MakeInput(b);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{},
                        {EwStep::Unary(UnaryOp::kScale, 0.5)}, &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto expected = da.Multiply(db)->Unary(UnaryOp::kScale, 0.5);
  ExpectMatches(c, expected);
}

TEST_F(ExecTest, MatMulWithBinaryEpilogue) {
  TiledMatrix a{"A", TileLayout::Square(24, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 24, 8)};
  TiledMatrix d{"D", TileLayout::Square(24, 24, 8)};
  TiledMatrix c{"C", TileLayout::Square(24, 24, 8)};
  DenseMatrix da = MakeInput(a), db = MakeInput(b), dd = MakeInput(d);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{},
                        {EwStep::Binary(BinaryOp::kAdd, "D")}, &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto expected = da.Multiply(db)->Binary(BinaryOp::kAdd, dd);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(c, *expected);
}

TEST_F(ExecTest, SwappedBinaryEpilogueOrdersOperands) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 8)};
  TiledMatrix d{"D", TileLayout::Square(16, 16, 8)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 8)};
  DenseMatrix da = MakeInput(a), db = MakeInput(b), dd = MakeInput(d);
  PhysicalPlan plan;
  // C = D - A*B (swapped subtraction).
  ASSERT_TRUE(
      AddMatMul(a, b, c, MatMulParams{},
                {EwStep::Binary(BinaryOp::kSub, "D", /*swapped=*/true)},
                &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto ab = da.Multiply(db);
  ASSERT_TRUE(ab.ok());
  auto expected = dd.Binary(BinaryOp::kSub, *ab);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(c, *expected);
}

TEST_F(ExecTest, SplitKAppliesEpilogueExactlyOnceInSumJob) {
  TiledMatrix a{"A", TileLayout::Square(16, 64, 16)};
  TiledMatrix b{"B", TileLayout::Square(64, 16, 16)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 16)};
  DenseMatrix da = MakeInput(a), db = MakeInput(b);
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{1, 1, 1},
                        {EwStep::Unary(UnaryOp::kAddScalar, 10.0)},
                        &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  // If the epilogue leaked into each of the 4 partials, we'd see +40.
  auto expected = da.Multiply(db)->Unary(UnaryOp::kAddScalar, 10.0);
  ExpectMatches(c, expected);
}

// ---------------------------------------------------------------------------
// EwChainJob / TransposeJob / SumJob
// ---------------------------------------------------------------------------

TEST_F(ExecTest, EwChainAppliesStepsInOrder) {
  TiledMatrix in{"X", TileLayout::Square(20, 12, 8)};
  TiledMatrix out{"Y", TileLayout::Square(20, 12, 8)};
  DenseMatrix dx = MakeInput(in);
  PhysicalPlan plan;
  // y = (x * 2 + 1) elementwise; order matters.
  ASSERT_TRUE(AddEwChain(in, out,
                         {EwStep::Unary(UnaryOp::kScale, 2.0),
                          EwStep::Unary(UnaryOp::kAddScalar, 1.0)},
                         &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  DenseMatrix expected =
      dx.Unary(UnaryOp::kScale, 2.0).Unary(UnaryOp::kAddScalar, 1.0);
  ExpectMatches(out, expected);
}

TEST_F(ExecTest, EwChainWithBinaryOperand) {
  TiledMatrix in{"X", TileLayout::Square(16, 16, 8)};
  TiledMatrix other{"Z", TileLayout::Square(16, 16, 8)};
  TiledMatrix out{"Y", TileLayout::Square(16, 16, 8)};
  DenseMatrix dx = MakeInput(in), dz = MakeInput(other);
  PhysicalPlan plan;
  ASSERT_TRUE(AddEwChain(in, out, {EwStep::Binary(BinaryOp::kMul, "Z")},
                         &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto expected = dx.Binary(BinaryOp::kMul, dz);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(out, *expected);
}

TEST_F(ExecTest, EmptyEwChainCopies) {
  TiledMatrix in{"X", TileLayout::Square(10, 10, 4)};
  TiledMatrix out{"Y", TileLayout::Square(10, 10, 4)};
  DenseMatrix dx = MakeInput(in);
  PhysicalPlan plan;
  ASSERT_TRUE(AddEwChain(in, out, {}, &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  ExpectMatches(out, dx);
}

TEST_F(ExecTest, EwChainRejectsLayoutMismatch) {
  TiledMatrix in{"X", TileLayout::Square(10, 10, 4)};
  TiledMatrix out{"Y", TileLayout::Square(10, 10, 5)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddEwChain(in, out, {}, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(ExecTest, TransposeJobMatchesReference) {
  TiledMatrix in{"X", TileLayout(30, 18, 8, 6)};
  TiledMatrix out{"Y", TileLayout(18, 30, 6, 8)};
  DenseMatrix dx = MakeInput(in);
  PhysicalPlan plan;
  ASSERT_TRUE(AddTranspose(in, out, &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  ExpectMatches(out, dx.Transpose());
}

TEST_F(ExecTest, TransposeRejectsNonTransposedLayout) {
  TiledMatrix in{"X", TileLayout::Square(8, 6, 4)};
  TiledMatrix out{"Y", TileLayout::Square(8, 6, 4)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddTranspose(in, out, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(ExecTest, SumJobRequiresParts) {
  TiledMatrix out{"Y", TileLayout::Square(8, 8, 4)};
  PhysicalPlan plan;
  plan.jobs.push_back(std::make_unique<SumJob>("s", std::vector<std::string>{},
                                               out, std::vector<EwStep>{}));
  EXPECT_FALSE(executor_.Run(plan).ok());
}

// ---------------------------------------------------------------------------
// Simulation mode over the DFS store
// ---------------------------------------------------------------------------

TEST(ExecSimTest, SimulatedRunRegistersOutputPlacementAndCosts) {
  DfsOptions dfs_options;
  dfs_options.num_nodes = 4;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);

  TiledMatrix a{"A", TileLayout::Square(2048, 2048, 512)};
  TiledMatrix b{"B", TileLayout::Square(2048, 2048, 512)};
  TiledMatrix c{"C", TileLayout::Square(2048, 2048, 512)};
  for (const TiledMatrix& m : {a, b}) {
    for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
      for (int64_t col = 0; col < m.layout.grid_cols(); ++col) {
        ASSERT_TRUE(store.PutMeta(m.name, TileId{r, col},
                                  16 + 512 * 512 * 8, -1).ok());
      }
    }
  }

  ClusterConfig cluster{MachineProfile{"t", 2, 2.0, 100, 100, 0.1}, 4, 2};
  SimEngine engine(cluster, SimEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.real_mode = false;
  Executor executor(&store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
  auto stats = executor.Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->total_seconds, 0.0);
  EXPECT_GT(stats->bytes_read, 0);
  EXPECT_GT(stats->bytes_written, 0);
  EXPECT_EQ(stats->total_tasks, 16);  // 4x4 C tiles, one per task
  // Output metadata registered: every C tile has hosting nodes.
  EXPECT_FALSE(store.PreferredNodes("C", TileId{3, 3}).empty());
}

TEST(ExecSimTest, BiggerBlocksReadFewerBytes) {
  // One task per C tile re-reads A rows per j; blocking amortizes reads.
  DfsOptions dfs_options;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  TiledMatrix a{"A", TileLayout::Square(4096, 4096, 512)};
  TiledMatrix b{"B", TileLayout::Square(4096, 4096, 512)};
  TileOpCostModel cost;
  BuildContext ctx{&store, &cost, /*attach_work=*/false};

  auto bytes_with = [&](int64_t bi, int64_t bj) -> int64_t {
    TiledMatrix c{"C", TileLayout::Square(4096, 4096, 512)};
    MatMulJob job("mm", a, b, c, MatMulParams{bi, bj, 0}, {});
    auto built = job.Build(ctx);
    CUMULON_CHECK(built.ok());
    int64_t total = 0;
    for (const Task& t : built->spec.tasks) total += t.cost.bytes_read;
    return total;
  };
  EXPECT_LT(bytes_with(2, 2), bytes_with(1, 1));
  EXPECT_LT(bytes_with(4, 4), bytes_with(2, 2));
}

TEST(ExecSimTest, JobStartupChargedPerJob) {
  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  TiledMatrix a{"A", TileLayout::Square(512, 512, 512)};
  ASSERT_TRUE(store.PutMeta("A", TileId{0, 0}, 16 + 512 * 512 * 8, -1).ok());
  TiledMatrix out{"Y", TileLayout::Square(512, 512, 512)};

  ClusterConfig cluster{MachineProfile{}, 1, 1};
  SimEngine engine(cluster, SimEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.real_mode = false;
  exec_options.job_startup_seconds = 100.0;
  Executor executor(&store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  ASSERT_TRUE(AddEwChain(a, out, {EwStep::Unary(UnaryOp::kAbs)}, &plan).ok());
  auto stats = executor.Run(plan);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->total_seconds, 100.0);
  EXPECT_LT(stats->total_seconds, 200.0);
}

// ---------------------------------------------------------------------------
// Broken builds: the executor checks each job's build before the job runs
// ---------------------------------------------------------------------------

constexpr int64_t kCheckTile = 8;

TiledMatrix CheckSquare(const std::string& name, int64_t dim) {
  return TiledMatrix{name, TileLayout::Square(dim, dim, kCheckTile)};
}

/// A job that fabricates its tile outputs, one no-op task per listed tile,
/// so coverage mutations (gap / double write) can be injected without
/// corrupting a real operator.
class FakeTilesJob : public PhysicalJob {
 public:
  FakeTilesJob(std::string name, std::string matrix,
               std::vector<TileId> tiles)
      : name_(std::move(name)),
        matrix_(std::move(matrix)),
        tiles_(std::move(tiles)) {}

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext&) const override {
    BuiltJob built;
    built.spec.name = name_;
    for (const TileId& id : tiles_) {
      Task task;
      task.name = StrCat(name_, "_", id.row, "_", id.col);
      built.spec.tasks.push_back(std::move(task));
      built.task_outputs.push_back(
          {TileOutput{matrix_, id, 16 + kCheckTile * kCheckTile * 8}});
    }
    return built;
  }
  std::vector<std::string> InputMatrices() const override { return {}; }
  std::vector<std::string> OutputMatrices() const override {
    return {matrix_};
  }
  std::string DebugString() const override { return name_; }

 private:
  std::string name_;
  std::string matrix_;
  std::vector<TileId> tiles_;
};

/// A sim-mode executor over a DFS holding the tile metadata of `inputs`.
/// Plan() starts with a sound job S = |inputs[0]|, so a job appended
/// after it that fails its check must leave all of S's tiles in the DFS
/// and none of its own.
class SoundJobFirst {
 public:
  explicit SoundJobFirst(std::vector<TiledMatrix> inputs)
      : inputs_(std::move(inputs)),
        dfs_([] {
          DfsOptions options;
          options.num_nodes = 2;
          return options;
        }()),
        store_(&dfs_),
        engine_(ClusterConfig{MachineProfile{}, 2, 2}, SimEngineOptions{}),
        executor_(&store_, &engine_, &cost_, [] {
          ExecutorOptions options;
          options.real_mode = false;
          return options;
        }()) {
    for (const TiledMatrix& m : inputs_) {
      for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
        for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
          const int64_t bytes =
              16 + m.layout.TileRowsAt(r) * m.layout.TileColsAt(c) * 8;
          CUMULON_CHECK(
              store_.PutMeta(m.name, TileId{r, c}, bytes, -1).ok());
        }
      }
    }
  }

  TiledMatrix sound_output() const {
    return TiledMatrix{"S", inputs_[0].layout};
  }

  PhysicalPlan Plan() const {
    PhysicalPlan plan;
    CUMULON_CHECK(AddEwChain(inputs_[0], sound_output(),
                             {EwStep::Unary(UnaryOp::kAbs)}, &plan)
                      .ok());
    return plan;
  }

  Status Run(const PhysicalPlan& plan) { return executor_.Run(plan).status(); }

  /// Tiles of `m`'s grid present in the DFS.
  int64_t Tiles(const TiledMatrix& m) const {
    int64_t present = 0;
    for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
        present += dfs_.Exists(DfsTileStore::TilePath(m.name, TileId{r, c}));
      }
    }
    return present;
  }

 private:
  std::vector<TiledMatrix> inputs_;
  SimDfs dfs_;
  DfsTileStore store_;
  TileOpCostModel cost_;
  SimEngine engine_;
  Executor executor_;
};

/// Runs FakeTilesJob writing `tiles` of a 2x2-tile M after the sound job
/// and expects the coverage check to stop the run between the two.
void ExpectCoverageFailure(std::vector<TileId> tiles) {
  SoundJobFirst harness({CheckSquare("A", 32)});
  PhysicalPlan plan = harness.Plan();
  plan.jobs.push_back(
      std::make_unique<FakeTilesJob>("fake", "M", std::move(tiles)));
  const Status status = harness.Run(plan);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_EQ(status.message().rfind("[verify.plan.coverage] job 'fake'", 0),
            0u)
      << status.message();
  EXPECT_EQ(harness.Tiles(harness.sound_output()),
            harness.sound_output().layout.num_tiles());
  EXPECT_EQ(harness.Tiles(CheckSquare("M", 16)), 0);
}

TEST(VerifyPlanTest, CoverageGapCaught) {
  // 2x2 grid with (1,0) missing.
  ExpectCoverageFailure({{0, 0}, {0, 1}, {1, 1}});
}

TEST(VerifyPlanTest, DoubleWriteCaught) {
  ExpectCoverageFailure({{0, 0}, {0, 0}, {0, 1}});
}

TEST(VerifyPlanTest, DeclaredOutputWithNoTilesCaught) {
  ExpectCoverageFailure({});
}

TEST(VerifyPlanTest, SkewedTileDimensionCaught) {
  // B's tile grid disagrees with A's on the shared k axis: the job's own
  // Build refuses it, and the run fails before the multiply runs a task.
  const TiledMatrix a = CheckSquare("A", 32);
  const TiledMatrix b{"B", TileLayout::Square(32, 32, kCheckTile * 2)};
  const TiledMatrix t = CheckSquare("T", 32);
  SoundJobFirst harness({a, b});
  PhysicalPlan plan = harness.Plan();
  ASSERT_TRUE(AddMatMul(a, b, t, MatMulParams{}, {}, &plan).ok());
  const Status status = harness.Run(plan);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_EQ(harness.Tiles(harness.sound_output()),
            harness.sound_output().layout.num_tiles());
  EXPECT_EQ(harness.Tiles(t), 0);
}

TEST(VerifyPlanTest, FlippedOperandOrientationCaught) {
  // T = A^T * B with A stored 16 x 32, so op(A) is 32 x 16. Flipping the
  // non-square operand to as-stored makes op(A) 16 x 32, whose inner
  // dimension no longer meets B's rows: Build refuses the job.
  const TiledMatrix a{"A", TileLayout::Square(16, 32, kCheckTile)};
  const TiledMatrix b{"B", TileLayout::Square(16, 32, kCheckTile)};
  const TiledMatrix t = CheckSquare("T", 32);
  for (const Orientation orientation :
       {Orientation::kTransposed, Orientation::kAsStored}) {
    SoundJobFirst harness({a, b});
    PhysicalPlan plan = harness.Plan();
    ASSERT_TRUE(AddMatMul(MatMulOperand(a, orientation), b, t,
                          MatMulParams{}, {}, &plan)
                    .ok());
    const Status status = harness.Run(plan);
    EXPECT_EQ(harness.Tiles(harness.sound_output()),
              harness.sound_output().layout.num_tiles());
    if (orientation == Orientation::kTransposed) {
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(harness.Tiles(t), t.layout.num_tiles());
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
      EXPECT_EQ(harness.Tiles(t), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Declared vs measured reads
// ---------------------------------------------------------------------------

TEST(ExecIoTest, BlockedMatMulReadsExactlyWhatItDeclares) {
  // 32x32 operands in 8x8 tiles: a 4x4 grid, so 2x2 blocks give four
  // tasks that each need 8 A and 8 B tiles. Within a task every A tile
  // recurs per j and every B tile per i; the task-wide reader's memo must
  // serve those repeats, so the DFS sees each declared tile read once.
  // Declared bytes count each task's reads on their own, while the store
  // coalesces concurrent prefetches of one tile to one node into a single
  // read. So four machines with one slot each hold one task apiece, and
  // no two tasks share a node whose reads could coalesce.
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    SimDfs dfs(DfsOptions{});
    DfsTileStore store(&dfs);
    store.EnablePrefetch(2);
    TiledMatrix a{"A", TileLayout::Square(32, 32, 8)};
    TiledMatrix b{"B", TileLayout::Square(32, 32, 8)};
    TiledMatrix c{"C", TileLayout::Square(32, 32, 8)};
    Rng rng(7);
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(32, 32, &rng), a, &store)
                    .ok());
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(32, 32, &rng), b, &store)
                    .ok());
    MetricsRegistry metrics;
    store.AttachMetrics(&metrics);  // after the input writes: reads only

    RealEngine engine(ClusterConfig{MachineProfile{}, 4, 1},
                      RealEngineOptions{});
    TileOpCostModel cost;
    ExecutorOptions options;
    options.prefetch_budget_bytes = prefetch_bytes;
    Executor executor(&store, &engine, &cost, options);
    PhysicalPlan plan;
    ASSERT_TRUE(
        AddMatMul(a, b, c, MatMulParams{2, 2, 0}, {}, &plan).ok());
    auto stats = executor.Run(plan);
    ASSERT_TRUE(stats.ok()) << stats.status();

    const MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(stats->total_tasks, 4);
    EXPECT_EQ(snapshot.CounterOr("dfs.read.ops", -1), 64);
    EXPECT_EQ(stats->bytes_read, 64 * (16 + 8 * 8 * 8));
    EXPECT_EQ(snapshot.CounterOr("dfs.read.bytes", -1), stats->bytes_read);
  }
}

TEST(ExecIoTest, GroupedNarrowMatMulReadsExactlyWhatItDeclares) {
  // A is 64 x 24 in 8 x 8 tiles (8 row panels of 3 tiles), B one ragged
  // tile column (24 x 5) and y a column vector the epilogue adds. With
  // bi = 0 on 4 slots each task covers two row panels, so the 4 tasks
  // read A once, y once and B once each, the second panel's B reads
  // served by the memo. One slot per machine keeps the tasks on separate
  // nodes, where the store cannot coalesce two tasks' concurrent
  // prefetches of B into one read.
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    SimDfs dfs(DfsOptions{});
    DfsTileStore store(&dfs);
    store.EnablePrefetch(2);
    TiledMatrix a{"A", TileLayout::Square(64, 24, 8)};
    TiledMatrix b{"B", TileLayout::Square(24, 5, 8)};
    TiledMatrix y{"y", TileLayout::Square(64, 1, 8)};
    TiledMatrix c{"C", TileLayout::Square(64, 5, 8)};
    Rng rng(7);
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(64, 24, &rng), a, &store)
                    .ok());
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(24, 5, &rng), b, &store)
                    .ok());
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(64, 1, &rng), y, &store)
                    .ok());
    MetricsRegistry metrics;
    store.AttachMetrics(&metrics);  // after the input writes: reads only

    RealEngine engine(ClusterConfig{MachineProfile{}, 4, 1},
                      RealEngineOptions{});
    TileOpCostModel cost;
    ExecutorOptions options;
    options.prefetch_budget_bytes = prefetch_bytes;
    Executor executor(&store, &engine, &cost, options);
    PhysicalPlan plan;
    ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{0, 1, 0},
                          {EwStep::Binary(BinaryOp::kAdd, "y", false,
                                          EwStep::Operand::kColVector)},
                          &plan)
                    .ok());
    auto stats = executor.Run(plan);
    ASSERT_TRUE(stats.ok()) << stats.status();

    const MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(stats->total_tasks, 4);
    // 24 A tiles, B's 3 tiles once per task, 8 y tiles.
    EXPECT_EQ(snapshot.CounterOr("dfs.read.ops", -1), 24 + 4 * 3 + 8);
    EXPECT_EQ(stats->bytes_read, 24 * (16 + 8 * 8 * 8) +
                                     4 * 3 * (16 + 8 * 5 * 8) +
                                     8 * (16 + 8 * 8));
    EXPECT_EQ(snapshot.CounterOr("dfs.read.bytes", -1), stats->bytes_read);
  }
}

TEST(ExecIoTest, RowPanelReadsExactlyWhatItDeclares) {
  // X is 40 x 16 in 8 x 8 tiles: 5 row panels, so three tasks, the last
  // with one panel. Each task must read its panels of X once although it
  // multiplies every X tile twice, V once although every panel uses it,
  // and the y tile each panel's step subtracts. One slot per machine keeps
  // the tasks on separate nodes, where the store cannot coalesce two
  // tasks' concurrent prefetches of V into one read.
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    SimDfs dfs(DfsOptions{});
    DfsTileStore store(&dfs);
    store.EnablePrefetch(2);
    TiledMatrix x{"X", TileLayout::Square(40, 16, 8)};
    TiledMatrix v{"V", TileLayout::Square(16, 1, 8)};
    TiledMatrix y{"y", TileLayout::Square(40, 1, 8)};
    TiledMatrix z{"Z", TileLayout::Square(16, 1, 8)};
    Rng rng(7);
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(40, 16, &rng), x, &store)
                    .ok());
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(16, 1, &rng), v, &store)
                    .ok());
    ASSERT_TRUE(StoreDense(DenseMatrix::Gaussian(40, 1, &rng), y, &store)
                    .ok());
    MetricsRegistry metrics;
    store.AttachMetrics(&metrics);  // after the input writes: reads only

    RealEngine engine(ClusterConfig{MachineProfile{}, 4, 1},
                      RealEngineOptions{});
    TileOpCostModel cost;
    ExecutorOptions options;
    options.prefetch_budget_bytes = prefetch_bytes;
    Executor executor(&store, &engine, &cost, options);
    PhysicalPlan plan;
    plan.jobs.push_back(std::make_unique<RowPanelJob>(
        "rp", x, v, z,
        std::vector<EwStep>{EwStep::Binary(BinaryOp::kSub, "y")}));
    auto stats = executor.Run(plan);
    ASSERT_TRUE(stats.ok()) << stats.status();

    const MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(stats->total_tasks, 3);
    // 10 X tiles, V's 2 tiles once per task, 5 y tiles.
    EXPECT_EQ(snapshot.CounterOr("dfs.read.ops", -1), 10 + 3 * 2 + 5);
    EXPECT_EQ(stats->bytes_read,
              10 * (16 + 8 * 8 * 8) + (3 * 2 + 5) * (16 + 8 * 8));
    EXPECT_EQ(snapshot.CounterOr("dfs.read.bytes", -1), stats->bytes_read);
  }
}

TEST(ExecIoTest, ProductStepReadsExactlyWhatItDeclares) {
  // C = A * B is 24 x 4 in 8-row tiles. The epilogue div(v, W*S) . mul(W, v)
  // multiplies W_i by S inside the task and then reads W_i again; the memo
  // serves that second read. With one task per output tile C_i ({1, 1, 0})
  // each of the three tasks reads A_i's two tiles, B's two tiles, W_i and
  // S. With one task for all three ({3, 1, 0}) the memo also serves the
  // later output tiles' reads of B and S, so B and S are read once. One
  // slot per machine keeps the tasks on separate nodes, where the store
  // cannot coalesce two tasks' concurrent prefetches of B or S into one
  // read.
  for (const MatMulParams& params :
       {MatMulParams{1, 1, 0}, MatMulParams{3, 1, 0}}) {
    for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
      SCOPED_TRACE(
          StrCat(params.ToString(), ", prefetch window ", prefetch_bytes));
      SimDfs dfs(DfsOptions{});
      DfsTileStore store(&dfs);
      store.EnablePrefetch(2);
      TiledMatrix a{"A", TileLayout::Square(24, 16, 8)};
      TiledMatrix b{"B", TileLayout::Square(16, 4, 8)};
      TiledMatrix w{"W", TileLayout::Square(24, 4, 8)};
      TiledMatrix s{"S", TileLayout::Square(4, 4, 8)};
      TiledMatrix c{"C", TileLayout::Square(24, 4, 8)};
      Rng rng(7);
      for (const TiledMatrix* m : {&a, &b, &w, &s}) {
        ASSERT_TRUE(StoreDense(DenseMatrix::Uniform(m->layout.rows(),
                                                    m->layout.cols(), &rng),
                               *m, &store)
                        .ok());
      }
      MetricsRegistry metrics;
      store.AttachMetrics(&metrics);  // after the input writes: reads only

      RealEngine engine(ClusterConfig{MachineProfile{}, 4, 1},
                        RealEngineOptions{});
      TileOpCostModel cost;
      ExecutorOptions options;
      options.prefetch_budget_bytes = prefetch_bytes;
      Executor executor(&store, &engine, &cost, options);
      PhysicalPlan plan;
      ASSERT_TRUE(AddMatMul(a, b, c, params,
                            {EwStep::Product(BinaryOp::kDiv, "W", "S", 4),
                             EwStep::Binary(BinaryOp::kMul, "W", true)},
                            &plan)
                      .ok());
      auto stats = executor.Run(plan);
      ASSERT_TRUE(stats.ok()) << stats.status();

      const MetricsSnapshot snapshot = metrics.Snapshot();
      const int64_t tasks = 3 / params.bi;
      EXPECT_EQ(stats->total_tasks, tasks);
      // A's six 8 x 8 tiles and W's three 8 x 4 tiles once; per task, B's
      // two 8 x 4 tiles and S (4 x 4).
      EXPECT_EQ(snapshot.CounterOr("dfs.read.ops", -1), 6 + 3 + tasks * 3);
      EXPECT_EQ(stats->bytes_read,
                6 * (16 + 8 * 8 * 8) + 3 * (16 + 8 * 4 * 8) +
                    tasks * (2 * (16 + 8 * 4 * 8) + (16 + 4 * 4 * 8)));
      EXPECT_EQ(snapshot.CounterOr("dfs.read.bytes", -1), stats->bytes_read);
    }
  }
}

/// What one run read: the bytes its tasks declared, and the DFS's read ops
/// and bytes.
struct ReadCounts {
  int64_t declared = -1;
  int64_t dfs_ops = -1;
  int64_t dfs_bytes = -1;
};

/// Stores `inputs` with uniform values, then runs the plan `add` builds on
/// `machines` one-slot machines with a prefetch window of `prefetch_bytes`
/// (0 = blocking reads). With at least as many machines as tasks, each task
/// runs on its own node, where the store cannot coalesce two tasks'
/// concurrent prefetches of one tile into one read.
ReadCounts RunAndCountReads(const std::vector<TiledMatrix>& inputs,
                            const std::function<void(PhysicalPlan*)>& add,
                            int machines, int64_t prefetch_bytes) {
  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  store.EnablePrefetch(2);
  Rng rng(7);
  for (const TiledMatrix& m : inputs) {
    EXPECT_TRUE(StoreDense(DenseMatrix::Uniform(m.layout.rows(),
                                                m.layout.cols(), &rng),
                           m, &store)
                    .ok());
  }
  MetricsRegistry metrics;
  store.AttachMetrics(&metrics);  // after the input writes: reads only

  RealEngine engine(ClusterConfig{MachineProfile{}, machines, 1},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.prefetch_budget_bytes = prefetch_bytes;
  Executor executor(&store, &engine, &cost, options);
  PhysicalPlan plan;
  add(&plan);
  auto stats = executor.Run(plan);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (!stats.ok()) return ReadCounts{};
  const MetricsSnapshot snapshot = metrics.Snapshot();
  return ReadCounts{stats->bytes_read, snapshot.CounterOr("dfs.read.ops", -1),
                    snapshot.CounterOr("dfs.read.bytes", -1)};
}

// X is 20 x 12 in 8 x 8 tiles: a ragged 3 x 2 grid. Reading all of it once
// costs 6 tile headers plus 20 * 12 doubles.
TiledMatrix RaggedX() {
  return TiledMatrix{"X", TileLayout::Square(20, 12, 8)};
}
constexpr int64_t kRaggedXBytes = 6 * 16 + 20 * 12 * 8;

TEST(ExecIoTest, SumReadsExactlyWhatItDeclares) {
  // Three partials shaped like X, two output tiles per task: three tasks,
  // each reading its two tiles of every partial, and the tile of c that the
  // column-vector epilogue step reads for both output tiles, which the memo
  // serves once.
  const TileLayout layout = RaggedX().layout;
  const TiledMatrix c{"c", TileLayout::Square(20, 1, 8)};
  std::vector<TiledMatrix> inputs = {c};
  for (const char* part : {"P0", "P1", "P2"}) {
    inputs.push_back(TiledMatrix{part, layout});
  }
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    const ReadCounts counts = RunAndCountReads(
        inputs,
        [&](PhysicalPlan* plan) {
          plan->jobs.push_back(std::make_unique<SumJob>(
              "sum", std::vector<std::string>{"P0", "P1", "P2"},
              TiledMatrix{"S", layout},
              std::vector<EwStep>{EwStep::Binary(
                  BinaryOp::kAdd, "c", false, EwStep::Operand::kColVector)},
              /*tiles_per_task=*/2));
        },
        /*machines=*/3, prefetch_bytes);
    EXPECT_EQ(counts.dfs_ops, 3 * 6 + 3);
    EXPECT_EQ(counts.declared, 3 * kRaggedXBytes + 3 * 16 + 20 * 8);
    EXPECT_EQ(counts.dfs_bytes, counts.declared);
  }
}

TEST(ExecIoTest, EwChainReadsExactlyWhatItDeclares) {
  // (X .* X) - mu, three tiles per task: two tasks. Each X tile is read
  // twice, once as the chain's input through Read and once as the mul
  // operand through the memo. Each task reads both tiles of the row vector
  // mu once, although its three output tiles recur over them.
  const TiledMatrix x = RaggedX();
  const TiledMatrix mu{"mu", TileLayout::Square(1, 12, 8)};
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    const ReadCounts counts = RunAndCountReads(
        {x, mu},
        [&](PhysicalPlan* plan) {
          ASSERT_TRUE(
              AddEwChain(x, TiledMatrix{"Y", x.layout},
                         {EwStep::Binary(BinaryOp::kMul, "X"),
                          EwStep::Binary(BinaryOp::kSub, "mu", false,
                                         EwStep::Operand::kRowVector)},
                         plan, /*tiles_per_task=*/3)
                  .ok());
        },
        /*machines=*/2, prefetch_bytes);
    EXPECT_EQ(counts.dfs_ops, 2 * 6 + 2 * 2);
    EXPECT_EQ(counts.declared, 2 * kRaggedXBytes + 2 * (2 * 16 + 12 * 8));
    EXPECT_EQ(counts.dfs_bytes, counts.declared);
  }
}

TEST(ExecIoTest, AggregateReadsExactlyWhatItDeclares) {
  // Row sums (three tasks, one per grid row) and column sums (two tasks),
  // each with an epilogue that multiplies by a same-shaped vector: X once,
  // and each tile of the vector once.
  const TiledMatrix x = RaggedX();
  const TiledMatrix w{"w", TileLayout::Square(20, 1, 8)};
  const TiledMatrix u{"u", TileLayout::Square(1, 12, 8)};
  struct Case {
    AggKind kind;
    const TiledMatrix* operand;
    int tasks;
    int64_t operand_bytes;
  };
  for (const Case& c : {Case{AggKind::kRowSums, &w, 3, 3 * 16 + 20 * 8},
                        Case{AggKind::kColSums, &u, 2, 2 * 16 + 12 * 8}}) {
    for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
      SCOPED_TRACE(StrCat(AggKindName(c.kind), ", prefetch window ",
                          prefetch_bytes));
      const TiledMatrix out{"agg", AggOutputLayout(x.layout, c.kind)};
      const ReadCounts counts = RunAndCountReads(
          {x, *c.operand},
          [&](PhysicalPlan* plan) {
            ASSERT_TRUE(AddAggregate(x, out, c.kind,
                                     {EwStep::Binary(BinaryOp::kMul,
                                                     c.operand->name)},
                                     plan)
                            .ok());
          },
          c.tasks, prefetch_bytes);
      EXPECT_EQ(counts.dfs_ops, 6 + c.tasks);
      EXPECT_EQ(counts.declared, kRaggedXBytes + c.operand_bytes);
      EXPECT_EQ(counts.dfs_bytes, counts.declared);
    }
  }
}

TEST(ExecIoTest, GramMatMulReadsSharedTilesOnce) {
  // X^T * X and Y * Y^T with a one-tile output: the task's A tile (i,k)
  // and B tile (k,j) are the same stored tile, which the memo fetches
  // once, so the task reads and declares X (or Y) once, not twice.
  const TiledMatrix x{"X", TileLayout::Square(24, 8, 8)};
  const TiledMatrix y{"Y", TileLayout::Square(8, 24, 8)};
  struct Case {
    const char* name;
    MatMulOperand a, b;
  };
  for (const Case& c :
       {Case{"X^T X", MatMulOperand(x, Orientation::kTransposed), x},
        Case{"Y Y^T", y, MatMulOperand(y, Orientation::kTransposed)}}) {
    for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
      SCOPED_TRACE(StrCat(c.name, ", prefetch window ", prefetch_bytes));
      const ReadCounts counts = RunAndCountReads(
          {x, y},
          [&](PhysicalPlan* plan) {
            ASSERT_TRUE(AddMatMul(c.a, c.b,
                                  TiledMatrix{"G", TileLayout::Square(8, 8, 8)},
                                  MatMulParams{1, 1, 0}, {}, plan)
                            .ok());
          },
          /*machines=*/1, prefetch_bytes);
      EXPECT_EQ(counts.dfs_ops, 3);
      EXPECT_EQ(counts.declared, 3 * (16 + 8 * 8 * 8));
      EXPECT_EQ(counts.dfs_bytes, counts.declared);
    }
  }
}

TEST(ExecIoTest, TransposeReadsExactlyWhatItDeclares) {
  // Two output tiles per task over X^T's 2 x 3 grid: three tasks that
  // together read each X tile once.
  const TiledMatrix x = RaggedX();
  const TiledMatrix xt{"Xt", x.layout.Transposed()};
  for (const int64_t prefetch_bytes : {int64_t{0}, int64_t{64} << 20}) {
    SCOPED_TRACE(StrCat("prefetch window ", prefetch_bytes));
    const ReadCounts counts = RunAndCountReads(
        {x},
        [&](PhysicalPlan* plan) {
          ASSERT_TRUE(
              AddTranspose(x, xt, plan, /*tiles_per_task=*/2).ok());
        },
        /*machines=*/3, prefetch_bytes);
    EXPECT_EQ(counts.dfs_ops, 6);
    EXPECT_EQ(counts.declared, kRaggedXBytes);
    EXPECT_EQ(counts.dfs_bytes, counts.declared);
  }
}

// ---------------------------------------------------------------------------
// EwStep unit behavior
// ---------------------------------------------------------------------------

TEST(EwStepTest, ApplyUnary) {
  Tile t(2, 2);
  FillTile(&t, 4.0);
  ASSERT_TRUE(ApplyEwStep(EwStep::Unary(UnaryOp::kSqrt), &t, nullptr).ok());
  EXPECT_DOUBLE_EQ(t.At(0, 0), 2.0);
}

TEST(EwStepTest, ApplyBinaryNeedsOperand) {
  Tile t(2, 2);
  EXPECT_FALSE(
      ApplyEwStep(EwStep::Binary(BinaryOp::kAdd, "m"), &t, nullptr).ok());
}

TEST(EwStepTest, SwappedBinaryReversesOperands) {
  Tile v(1, 1), other(1, 1);
  v.Set(0, 0, 3.0);
  other.Set(0, 0, 10.0);
  ASSERT_TRUE(ApplyEwStep(EwStep::Binary(BinaryOp::kSub, "m", true), &v,
                          &other).ok());
  EXPECT_DOUBLE_EQ(v.At(0, 0), 7.0);  // other - v
}

TEST(EwStepTest, ToStringIsInformative) {
  EXPECT_EQ(EwStep::Unary(UnaryOp::kScale, 2.0).ToString(), "scale(2)");
  EXPECT_EQ(EwStep::Binary(BinaryOp::kDiv, "D").ToString(), "div(v, D)");
  EXPECT_EQ(EwStep::Binary(BinaryOp::kSub, "D", true).ToString(),
            "sub(D, v)");
}

}  // namespace
}  // namespace cumulon
