// Randomized differential test: generate random well-shaped programs,
// lower and execute them on the real engine (with and without fusion,
// with chain optimization), and compare against the single-node
// interpreter. This sweeps lowering-path combinations (fusion spines,
// broadcasts, aggregates, transposes, chain reordering, CSE) no
// hand-written test enumerates.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
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
#include "lang/interpreter.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"
#include "obs/trace.h"
#include "verify/verify.h"

namespace cumulon {
namespace {

constexpr int64_t kTile = 8;

/// Generates random expressions of a requested shape, creating Gaussian
/// input matrices on demand.
class ExprGenerator {
 public:
  explicit ExprGenerator(uint64_t seed) : rng_(seed) {}

  ExprPtr Generate(int depth, int64_t rows, int64_t cols) {
    if (depth <= 0) return MakeInput(rows, cols);
    switch (rng_.NextUint64(12)) {
      case 0:
      case 1:
        return MakeInput(rows, cols);
      case 2: {  // benign unary
        static const UnaryOp kOps[] = {UnaryOp::kScale, UnaryOp::kAddScalar,
                                       UnaryOp::kAbs, UnaryOp::kSigmoid};
        return Expr::EwUnary(kOps[rng_.NextUint64(4)],
                             Generate(depth - 1, rows, cols),
                             rng_.NextDouble(-2, 2));
      }
      case 3:
      case 4: {  // same-shape binary (no division: operands can be ~0)
        static const BinaryOp kOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                        BinaryOp::kMul, BinaryOp::kMax,
                                        BinaryOp::kMin};
        auto e = Expr::EwBinary(kOps[rng_.NextUint64(5)],
                                Generate(depth - 1, rows, cols),
                                Generate(depth - 1, rows, cols));
        CUMULON_CHECK(e.ok()) << e.status();
        return std::move(e).value();
      }
      case 5: {  // broadcast binary (only when the shape is a true matrix)
        if (rows == 1 || cols == 1) return MakeInput(rows, cols);
        const bool row_vector = rng_.NextUint64(2) == 0;
        auto vec = row_vector ? Generate(depth - 1, 1, cols)
                              : Generate(depth - 1, rows, 1);
        auto full = Generate(depth - 1, rows, cols);
        const bool vector_left = rng_.NextUint64(2) == 0;
        auto e = vector_left
                     ? Expr::EwBinary(BinaryOp::kAdd, vec, full)
                     : Expr::EwBinary(BinaryOp::kSub, full, vec);
        CUMULON_CHECK(e.ok()) << e.status();
        return std::move(e).value();
      }
      case 6:
      case 7: {  // multiply through a random inner dimension
        const int64_t k = PickDim();
        auto e = Expr::MatMul(Generate(depth - 1, rows, k),
                              Generate(depth - 1, k, cols));
        CUMULON_CHECK(e.ok()) << e.status();
        return std::move(e).value();
      }
      case 8:
        return Expr::Transpose(Generate(depth - 1, cols, rows));
      case 9: {  // aggregates when the target shape is a vector
        if (cols == 1) {
          return Expr::RowSums(Generate(depth - 1, rows, PickDim()));
        }
        if (rows == 1) {
          return Expr::ColSums(Generate(depth - 1, PickDim(), cols));
        }
        return MakeInput(rows, cols);
      }
      default:  // nested chain: unary over binary keeps spines interesting
        return Expr::EwUnary(
            UnaryOp::kScale,
            Generate(depth - 1, rows, cols), rng_.NextDouble(0.5, 1.5));
    }
  }

  const std::map<std::string, DenseMatrix>& dense_env() const {
    return dense_env_;
  }

  Status Materialize(TileStore* store,
                     std::map<std::string, TiledMatrix>* bindings) {
    for (const auto& [name, dense] : dense_env_) {
      TiledMatrix m{name,
                    TileLayout::Square(dense.rows(), dense.cols(), kTile)};
      CUMULON_RETURN_IF_ERROR(StoreDense(dense, m, store));
      bindings->insert_or_assign(name, m);
    }
    return Status::OK();
  }

 private:
  int64_t PickDim() {
    static const int64_t kDims[] = {8, 16, 24};
    return kDims[rng_.NextUint64(3)];
  }

  ExprPtr MakeInput(int64_t rows, int64_t cols) {
    const std::string name = StrCat("in_", rows, "x", cols);
    if (dense_env_.find(name) == dense_env_.end()) {
      dense_env_.insert({name, DenseMatrix::Gaussian(rows, cols, &rng_)});
    }
    return Expr::Input(name, rows, cols);
  }

  Rng rng_;
  std::map<std::string, DenseMatrix> dense_env_;
};

class LoweringFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LoweringFuzzTest, DistributedMatchesInterpreter) {
  const uint64_t seed = GetParam();
  ExprGenerator generator(seed);

  Program program;
  program.Assign("out1", generator.Generate(3, 16, 24));
  program.Assign("out2", generator.Generate(2, 24, 8));

  // Ground truth from the interpreter (on the raw program).
  auto reference = EvalProgram(program, generator.dense_env());
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (const bool fusion : {true, false}) {
    for (const bool optimize : {true, false}) {
      SCOPED_TRACE(StrCat("seed=", seed, " fusion=", fusion,
                          " optimize=", optimize));
      InMemoryTileStore store;
      std::map<std::string, TiledMatrix> bindings;
      ASSERT_TRUE(generator.Materialize(&store, &bindings).ok());

      LoweringOptions lowering;
      lowering.tile_dim = kTile;
      lowering.enable_fusion = fusion;
      const Program& to_run = program;
      const Program rewritten = optimize ? OptimizeProgram(to_run) : to_run;
      // Every randomized rewrite must leave the logical IR sound.
      {
        const VerifyReport report = VerifyProgram(rewritten);
        ASSERT_TRUE(report.ok()) << report.ToString();
      }
      auto lowered = Lower(rewritten, bindings, lowering);
      ASSERT_TRUE(lowered.ok()) << lowered.status();
      // ... and every lowered plan must pass the full physical suite.
      {
        PlanVerifyOptions verify_options;
        verify_options.check_external = true;
        for (const auto& [name, matrix] : bindings) {
          verify_options.external_matrices.insert(matrix.name);
        }
        verify_options.require_determinism = true;
        const VerifyReport report =
            VerifyPlan(lowered->plan, verify_options);
        ASSERT_TRUE(report.ok()) << report.ToString();
      }

      RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                        RealEngineOptions{});
      TileOpCostModel cost;
      Executor executor(&store, &engine, &cost, ExecutorOptions{});
      auto stats = executor.Run(lowered->plan);
      ASSERT_TRUE(stats.ok()) << stats.status();

      for (const char* target : {"out1", "out2"}) {
        auto loaded = LoadDense(lowered->outputs.at(target), &store);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        auto diff = reference->at(target).MaxAbsDiff(*loaded);
        ASSERT_TRUE(diff.ok());
        EXPECT_LT(diff.value(), 1e-7) << target;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

/// The DAG-parallel executor must agree with the interpreter too.
class LeveledFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeveledFuzzTest, LeveledExecutionMatchesInterpreter) {
  const uint64_t seed = GetParam();
  ExprGenerator generator(seed * 1000 + 7);
  Program program;
  program.Assign("a", generator.Generate(2, 16, 16));
  program.Assign("b", generator.Generate(2, 16, 16));
  program.Assign("c", Expr::Input("a", 16, 16) * Expr::Input("b", 16, 16));

  auto reference = EvalProgram(program, generator.dense_env());
  ASSERT_TRUE(reference.ok()) << reference.status();

  InMemoryTileStore store;
  std::map<std::string, TiledMatrix> bindings;
  ASSERT_TRUE(generator.Materialize(&store, &bindings).ok());
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  auto lowered = Lower(program, bindings, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  {
    const VerifyReport report = VerifyPlan(lowered->plan);
    ASSERT_TRUE(report.ok()) << report.ToString();
  }

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.parallelize_independent_jobs = true;
  Executor executor(&store, &engine, &cost, options);
  ASSERT_TRUE(executor.Run(lowered->plan).ok());

  auto loaded = LoadDense(lowered->outputs.at("c"), &store);
  ASSERT_TRUE(loaded.ok());
  auto diff = reference->at("c").MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeveledFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

/// Tracing must be pure observation: the same random program run with a
/// global tracer installed has to produce bit-identical tiles to the
/// untraced run.
class TracedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TracedFuzzTest, TracingDoesNotPerturbResults) {
  const uint64_t seed = GetParam();

  // One run of the generated program; returns the dense outputs. The same
  // seed regenerates the same program and inputs each call.
  auto run = [&]() -> std::map<std::string, DenseMatrix> {
    ExprGenerator generator(seed);
    Program program;
    program.Assign("out1", generator.Generate(3, 16, 24));
    program.Assign("out2", generator.Generate(2, 24, 8));

    InMemoryTileStore store;
    std::map<std::string, TiledMatrix> bindings;
    CUMULON_CHECK(generator.Materialize(&store, &bindings).ok());
    LoweringOptions lowering;
    lowering.tile_dim = kTile;
    auto lowered = Lower(program, bindings, lowering);
    CUMULON_CHECK(lowered.ok()) << lowered.status();

    RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                      RealEngineOptions{});
    TileOpCostModel cost;
    Executor executor(&store, &engine, &cost, ExecutorOptions{});
    CUMULON_CHECK(executor.Run(lowered->plan).ok());

    std::map<std::string, DenseMatrix> out;
    for (const char* target : {"out1", "out2"}) {
      auto loaded = LoadDense(lowered->outputs.at(target), &store);
      CUMULON_CHECK(loaded.ok()) << loaded.status();
      out.insert({target, std::move(loaded).value()});
    }
    return out;
  };

  Tracer tracer(Tracer::ClockDomain::kWall);
  SetGlobalTracer(&tracer);
  const std::map<std::string, DenseMatrix> traced = run();
  SetGlobalTracer(nullptr);
  const std::map<std::string, DenseMatrix> plain = run();

  EXPECT_GT(tracer.span_count(), 0) << "tracing never engaged; vacuous";
  for (const char* target : {"out1", "out2"}) {
    auto diff = plain.at(target).MaxAbsDiff(traced.at(target));
    ASSERT_TRUE(diff.ok());
    EXPECT_EQ(diff.value(), 0.0) << target << " differs with tracing on";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracedFuzzTest,
                         ::testing::Range<uint64_t>(1, 6));

/// A differential oracle between the engines. Both place tasks by one
/// rule, and a sim-mode run registers each output tile on the machine its
/// task ran on, as a real run writes it there. So over one DFS a simulated
/// plan puts every task of every job on the machine the real run of it
/// does. Replication 1 keeps each tile on its writer, so a placement
/// difference in one job changes the preferred machines of the next. The
/// executor builds and checks each job the same way in both modes, so
/// every job also has the same task count, the same declared bytes read
/// and written, and leaves the same output tiles in the DFS.
class EnginePlacementFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// One engine job (a scheduling round) as the executor reports it.
struct RoundRecord {
  std::string name;
  int num_tasks = 0;
  std::vector<int> machines;  // per task
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
};

/// One run of a program: its rounds, and per plan job the output tiles
/// present in the DFS after the run.
struct RunRecord {
  std::vector<RoundRecord> rounds;
  std::vector<std::vector<std::pair<std::string, TileId>>> job_tiles;
};

/// Stores a program's inputs and binds them. Each call must store the
/// same inputs in the same order, so replica placement repeats too.
using Materializer =
    std::function<Status(TileStore*, std::map<std::string, TiledMatrix>*)>;

/// Runs `program` on `cluster` over a fresh DFS with replication 1, on
/// the real engine or the simulator, and records it. Output tiles are
/// probed on a `probe_grid` x `probe_grid` grid, which must reach one tile
/// row and column past every output to also see a tile written outside.
RunRecord RunOnEngine(const Program& program, const Materializer& materialize,
                      const ClusterConfig& cluster, int64_t probe_grid,
                      bool real, bool parallel) {
  DfsOptions dfs_options;
  dfs_options.num_nodes = cluster.num_machines;
  dfs_options.replication = 1;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  std::map<std::string, TiledMatrix> bindings;
  CUMULON_CHECK(materialize(&store, &bindings).ok());
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  auto lowered = Lower(program, bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();

  std::unique_ptr<Engine> engine;
  if (real) {
    engine = std::make_unique<RealEngine>(cluster, RealEngineOptions{});
  } else {
    engine = std::make_unique<SimEngine>(cluster, SimEngineOptions{});
  }
  TileOpCostModel cost;
  ExecutorOptions options;
  options.real_mode = real;
  options.parallelize_independent_jobs = parallel;
  options.drop_temporaries = false;  // compare every job's output tiles
  Executor executor(&store, engine.get(), &cost, options);
  auto stats = executor.Run(lowered->plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  RunRecord record;
  for (const JobRecord& job : stats->jobs) {
    RoundRecord round{job.name, job.stats.num_tasks, {},
                      job.stats.bytes_read, job.stats.bytes_written};
    for (const TaskRunInfo& task : job.stats.task_runs) {
      round.machines.push_back(task.machine);
    }
    record.rounds.push_back(std::move(round));
  }
  for (const auto& job : lowered->plan.jobs) {
    std::vector<std::pair<std::string, TileId>> tiles;
    for (const std::string& matrix : job->OutputMatrices()) {
      for (int64_t r = 0; r < probe_grid; ++r) {
        for (int64_t c = 0; c < probe_grid; ++c) {
          if (dfs.Exists(DfsTileStore::TilePath(matrix, TileId{r, c}))) {
            tiles.emplace_back(matrix, TileId{r, c});
          }
        }
      }
    }
    record.job_tiles.push_back(std::move(tiles));
  }
  return record;
}

void ExpectSameRuns(const RunRecord& simulated, const RunRecord& real) {
  ASSERT_FALSE(real.rounds.empty());
  ASSERT_EQ(simulated.rounds.size(), real.rounds.size());
  for (size_t j = 0; j < real.rounds.size(); ++j) {
    const RoundRecord& sim = simulated.rounds[j];
    const RoundRecord& measured = real.rounds[j];
    EXPECT_EQ(sim.name, measured.name);
    EXPECT_EQ(sim.num_tasks, measured.num_tasks) << measured.name;
    EXPECT_EQ(sim.machines.size(), static_cast<size_t>(sim.num_tasks));
    EXPECT_EQ(sim.machines, measured.machines) << measured.name;
    EXPECT_EQ(sim.bytes_read, measured.bytes_read) << measured.name;
    EXPECT_EQ(sim.bytes_written, measured.bytes_written) << measured.name;
  }
  ASSERT_EQ(simulated.job_tiles.size(), real.job_tiles.size());
  for (size_t j = 0; j < real.job_tiles.size(); ++j) {
    EXPECT_FALSE(real.job_tiles[j].empty()) << "job #" << j;
    EXPECT_EQ(simulated.job_tiles[j], real.job_tiles[j]) << "job #" << j;
  }
}

TEST_P(EnginePlacementFuzzTest, SimAndRealPlaceEveryTaskOnOneMachine) {
  const uint64_t seed = GetParam();
  const ClusterConfig cluster{MachineProfile{}, 3, 2};
  // Every matrix the generator makes is at most 24 x 24, a 3 x 3 grid of
  // 8 x 8 tiles.
  constexpr int64_t kProbeGrid = 24 / kTile + 1;
  auto run = [&](bool real, bool parallel) {
    // The same seed regenerates the same program and inputs each call.
    ExprGenerator generator(seed);
    Program program;
    program.Assign("out1", generator.Generate(3, 16, 24));
    program.Assign("out2", generator.Generate(2, 24, 8));
    return RunOnEngine(
        program,
        [&generator](TileStore* store,
                     std::map<std::string, TiledMatrix>* bindings) {
          return generator.Materialize(store, bindings);
        },
        cluster, kProbeGrid, real, parallel);
  };

  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(StrCat("seed=", seed, " parallel=", parallel));
    ExpectSameRuns(run(false, parallel), run(true, parallel));
  }
}

TEST_P(EnginePlacementFuzzTest, NarrowMultipliesAgreeOnEveryClusterSize) {
  // Multiplies by a one-tile-column operand, as stored and read
  // transposed in place, over 4 to 12 row panels: their builds group row
  // panels for the cluster's slots, so each cluster size builds its own
  // task list, and both engines must build and place the same one.
  const uint64_t seed = GetParam();
  const int64_t rows = kTile * static_cast<int64_t>(4 + seed % 9);
  const Program program = [&] {
    Program p;
    auto a = Expr::Input("A", rows, 24);
    p.Assign("out1",
             Expr::EwUnary(UnaryOp::kScale, a * Expr::Input("B", 24, 5),
                           0.5));
    p.Assign("out2", a * Expr::Transpose(Expr::Input("C", 8, 24)));
    return p;
  }();
  const Materializer materialize =
      [&](TileStore* store, std::map<std::string, TiledMatrix>* bindings) {
        Rng rng(seed);
        for (const auto& [name, r, c] :
             std::vector<std::tuple<std::string, int64_t, int64_t>>{
                 {"A", rows, 24}, {"B", 24, 5}, {"C", 8, 24}}) {
          const TiledMatrix m{name, TileLayout::Square(r, c, kTile)};
          CUMULON_RETURN_IF_ERROR(
              StoreDense(DenseMatrix::Gaussian(r, c, &rng), m, store));
          bindings->insert_or_assign(name, m);
        }
        return Status::OK();
      };
  for (const auto& [machines, slots] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {4, 2}}) {
    const ClusterConfig cluster{MachineProfile{}, machines, slots};
    SCOPED_TRACE(StrCat("seed=", seed, " rows=", rows, " cluster=", machines,
                        "x", slots));
    ExpectSameRuns(
        RunOnEngine(program, materialize, cluster, rows / kTile + 1, false,
                    false),
        RunOnEngine(program, materialize, cluster, rows / kTile + 1, true,
                    false));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePlacementFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace cumulon
