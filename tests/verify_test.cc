#include "verify/verify.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/physical_plan.h"
#include "lang/expr.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"
#include "sched/workload_manager.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Logical-IR passes: each mutation flips exactly one invariant and must be
// caught under its typed verify.* reason.
// ---------------------------------------------------------------------------

TEST(VerifyExprTest, WellFormedProgramIsClean) {
  auto a = Expr::Input("A", 16, 8);
  auto b = Expr::Input("B", 8, 16);
  Program p;
  p.Assign("C", a * b);
  p.Assign("D", Scale(Expr::Input("C", 16, 16), 2.0));
  const VerifyReport report = VerifyProgram(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifyExprTest, ShapeMutationCaught) {
  // The factories would refuse this, so the mutation goes in through the
  // test backdoor: a MatMul whose inner dimensions disagree.
  auto a = Expr::Input("A", 16, 8);
  auto b = Expr::Input("B", 9, 16);  // 8 != 9
  auto bad = Expr::MakeUncheckedForTest(ExprKind::kMatMul, 16, 16, a, b);
  const VerifyReport report = VerifyExpr(bad);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.expr.shape")) << report.ToString();
}

TEST(VerifyExprTest, WrongResultShapeCaught) {
  auto a = Expr::Input("A", 16, 8);
  auto b = Expr::Input("B", 8, 16);
  // Inner dims agree but the node claims a 4x4 result.
  auto bad = Expr::MakeUncheckedForTest(ExprKind::kMatMul, 4, 4, a, b);
  const VerifyReport report = VerifyExpr(bad);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.expr.shape")) << report.ToString();
}

TEST(VerifyExprTest, CycleMutationCaught) {
  auto a = Expr::Input("A", 8, 8);
  auto u = Expr::EwUnary(UnaryOp::kScale, a, 2.0);
  auto v = Expr::EwUnary(UnaryOp::kScale, u, 3.0);
  // Tie v's descendant back to v: u -> v -> u.
  Expr::MutateLeftForTest(u, v);
  const VerifyReport report = VerifyExpr(v);
  // Untie the cycle so the shared_ptr graph frees itself.
  Expr::MutateLeftForTest(u, a);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.expr.cycle")) << report.ToString();
}

TEST(VerifyExprTest, DanglingOperandCaught) {
  auto bad = Expr::MakeUncheckedForTest(ExprKind::kMatMul, 8, 8,
                                        Expr::Input("A", 8, 8), nullptr);
  const VerifyReport report = VerifyExpr(bad);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.expr.dangling")) << report.ToString();

  // A leaf with child edges is the dual corruption.
  auto leafy = Expr::MakeUncheckedForTest(ExprKind::kInput, 8, 8,
                                          Expr::Input("A", 8, 8), nullptr,
                                          "B");
  EXPECT_TRUE(VerifyExpr(leafy).Has("verify.expr.dangling"));
}

TEST(VerifyExprTest, CseUnsoundnessCaught) {
  // Two Input leaves with the same name but different shapes: lowering's
  // key-indexed reuse would substitute one for the other.
  auto a1 = Expr::Input("A", 16, 8);
  auto a2 = Expr::Input("A", 8, 8);
  auto bad = Expr::MakeUncheckedForTest(ExprKind::kMatMul, 16, 8, a1, a2);
  const VerifyReport report = VerifyExpr(bad);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.expr.cse")) << report.ToString();
}

TEST(VerifyProgramTest, UnboundInputCaught) {
  Program p;
  p.Assign("C", Scale(Expr::Input("ghost", 8, 8), 2.0));
  LogicalVerifyOptions options;
  options.require_bound = true;
  const VerifyReport report = VerifyProgram(p, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.program.unbound")) << report.ToString();

  // Earlier targets satisfy later reads; bindings satisfy the rest.
  Program ok;
  ok.Assign("X", Scale(Expr::Input("A", 8, 8), 2.0));
  ok.Assign("Y", Scale(Expr::Input("X", 8, 8), 3.0));
  options.bindings["A"] = {8, 8};
  EXPECT_TRUE(VerifyProgram(ok, options).ok());
}

TEST(VerifyProgramTest, BindingShapeClashCaught) {
  Program p;
  p.Assign("C", Scale(Expr::Input("A", 8, 8), 2.0));
  LogicalVerifyOptions options;
  options.bindings["A"] = {16, 16};  // bound shape disagrees with the use
  const VerifyReport report = VerifyProgram(p, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.program.unbound")) << report.ToString();
}

TEST(VerifyReportTest, StatusLeadsWithTypedReasonPrefix) {
  VerifyReport report;
  report.Add("verify.plan.dependency", "first");
  report.Add("verify.split", "second");
  const Status status = report.ToStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message().rfind("[verify.plan.dependency] ", 0), 0u)
      << status.message();
  // Every further issue is still in the message.
  EXPECT_NE(status.message().find("verify.split"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Physical-plan passes.
// ---------------------------------------------------------------------------

constexpr int64_t kTile = 8;

TiledMatrix Square(const std::string& name, int64_t dim) {
  return TiledMatrix{name, TileLayout::Square(dim, dim, kTile)};
}

/// A two-job chain: T = A * B, C = ew(T).
PhysicalPlan MakeChainPlan() {
  PhysicalPlan plan;
  CUMULON_CHECK(AddMatMul(Square("A", 32), Square("B", 32), Square("T", 32),
                          MatMulParams{}, {}, &plan)
                    .ok());
  CUMULON_CHECK(AddEwChain(Square("T", 32), Square("C", 32), {}, &plan).ok());
  return plan;
}

PlanVerifyOptions ExternalOptions(std::set<std::string> resident) {
  PlanVerifyOptions options;
  options.check_external = true;
  options.external_matrices = std::move(resident);
  return options;
}

TEST(VerifyPlanTest, WellFormedPlanIsClean) {
  const PhysicalPlan plan = MakeChainPlan();
  const VerifyReport report = VerifyPlan(plan, ExternalOptions({"A", "B"}));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifyPlanTest, DroppedProducerCaught) {
  PhysicalPlan plan = MakeChainPlan();
  // Drop the MatMul job: the ew job's input 'T' now has no producer and
  // is not DFS-resident.
  plan.jobs.erase(plan.jobs.begin());
  const VerifyReport report = VerifyPlan(plan, ExternalOptions({"A", "B"}));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.plan.dependency")) << report.ToString();
}

TEST(VerifyPlanTest, CycledEdgeCaught) {
  PhysicalPlan plan = MakeChainPlan();
  // Reverse the job order: the consumer now runs before its producer,
  // which is exactly a cycle in the implicit dependency DAG.
  std::swap(plan.jobs[0], plan.jobs[1]);
  const VerifyReport report = VerifyPlan(plan, ExternalOptions({"A", "B"}));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.plan.dependency")) << report.ToString();
}

TEST(VerifyPlanTest, DuplicateProducerCaught) {
  PhysicalPlan plan = MakeChainPlan();
  // A second writer of 'C'.
  CUMULON_CHECK(AddEwChain(Square("T", 32), Square("C", 32), {}, &plan).ok());
  const VerifyReport report = VerifyPlan(plan, ExternalOptions({"A", "B"}));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.plan.dependency")) << report.ToString();
}

TEST(VerifyPlanTest, MalformedSplitCaught) {
  PhysicalPlan plan;
  CUMULON_CHECK(AddMatMul(Square("A", 32), Square("B", 32), Square("T", 32),
                          MatMulParams{-1, 1, 0}, {}, &plan)
                    .ok());
  const VerifyReport report = VerifyPlan(plan, ExternalOptions({"A", "B"}));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.split")) << report.ToString();
}

TEST(VerifySplitTest, StandaloneScreening) {
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{1, 1, 0}).ok());
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{2, 4, 8}, 16, 16, 16).ok());
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{3, 3, 5}, 16, 16, 16).ok());
  // bi = 0 is the documented "sized for the cluster" value; a negative
  // bi is still malformed.
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{0, 1, 0}).ok());
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{0, 1, 0}, 7, 1, 3).ok());
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{-1, 1, 0})
                  .Has("verify.split"));
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{-1, 1, 0}, 7, 1, 3)
                  .Has("verify.split"));
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{1, 0, 0})
                  .Has("verify.split"));
  EXPECT_TRUE(VerifyMatMulSplit(MatMulParams{1, 1, -2})
                  .Has("verify.split"));
}

TEST(VerifyPlanTest, InfeasibleBudgetCaught) {
  const PhysicalPlan plan = MakeChainPlan();
  PlanVerifyOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.cache_reserve_bytes = 2 << 20;  // reservation exceeds the budget
  const VerifyReport report = VerifyPlan(plan, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.budget.infeasible")) << report.ToString();

  options.cache_reserve_bytes = 1 << 19;
  EXPECT_TRUE(VerifyPlan(plan, options).ok());
}

TEST(VerifyPlanTest, MissingDeterminismContractCaught) {
  const PhysicalPlan plan = MakeChainPlan();  // hand-built: unstamped
  PlanVerifyOptions options;
  options.require_determinism = true;
  const VerifyReport report = VerifyPlan(plan, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("verify.plan.determinism")) << report.ToString();

  // Without the requirement an unstamped plan is legal (direct manager
  // submissions).
  options.require_determinism = false;
  EXPECT_TRUE(VerifyPlan(plan, options).ok());
}

// ---------------------------------------------------------------------------
// Pipeline edges.
// ---------------------------------------------------------------------------

TEST(VerifyPipelineTest, LowerStampsTheDeterminismContract) {
  InMemoryTileStore store;
  TiledMatrix a{"A", TileLayout::Square(16, 16, kTile)};
  Rng rng{7};
  CUMULON_CHECK(
      StoreDense(DenseMatrix::Gaussian(16, 16, &rng), a, &store).ok());
  Program p;
  p.Assign("C", Scale(Expr::Input("A", 16, 16), 2.0));
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  lowering.seed = 42;
  auto lowered = Lower(p, {{"A", a}}, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_TRUE(lowered->plan.determinism.recorded);
  EXPECT_EQ(lowered->plan.determinism.seed, 42u);

  PlanVerifyOptions options;
  options.require_determinism = true;
  EXPECT_TRUE(VerifyPlan(lowered->plan, options).ok());
}

TEST(VerifyPipelineTest, ReloweringWithReboundVersionedNamesDoesNotCollide) {
  // Regression for the name-collision bug the verifier flushed out: a
  // binding carrying a versioned name from a previous Lower() call
  // ("x@v1", as rebound by lang/driver.h between iterations) must not be
  // reused as the fresh target name — the job would consume and produce
  // the same matrix.
  InMemoryTileStore store;
  TiledMatrix x{"x", TileLayout::Square(kTile, kTile, kTile)};
  CUMULON_CHECK(
      StoreDense(DenseMatrix::Constant(kTile, kTile, 1.0), x, &store).ok());
  Program p;
  p.Assign("x", Scale(Expr::Input("x", kTile, kTile), 2.0));
  LoweringOptions lowering;
  lowering.tile_dim = kTile;

  std::map<std::string, TiledMatrix> bindings{{"x", x}};
  for (int iter = 0; iter < 3; ++iter) {
    auto lowered = Lower(p, bindings, lowering);
    ASSERT_TRUE(lowered.ok()) << iter << ": " << lowered.status();
    const TiledMatrix& out = lowered->outputs.at("x");
    EXPECT_NE(out.name, bindings.at("x").name) << "iteration " << iter;
    std::set<std::string> resident{bindings.at("x").name};
    EXPECT_TRUE(
        VerifyPlan(lowered->plan, ExternalOptions(std::move(resident))).ok());
    bindings.insert_or_assign("x", out);
  }
}

TEST(VerifyPipelineTest, OptimizerOutputVerifies) {
  Program p;
  auto a = Expr::Input("A", 32, 8);
  auto b = Expr::Input("B", 8, 32);
  auto c = Expr::Input("C", 32, 32);
  p.Assign("R", Scale((a * b) + c, 0.5));
  const Program optimized = OptimizeProgram(p);
  EXPECT_TRUE(VerifyProgram(optimized).ok());
}

TEST(VerifyPipelineTest, StatusEntryPointBumpsMetrics) {
  MetricsRegistry metrics;
  const PhysicalPlan good = MakeChainPlan();
  EXPECT_TRUE(VerifyPlanStatus(good, {}, &metrics).ok());
  EXPECT_EQ(metrics.counter("verify.runs")->Value(), 1);
  EXPECT_EQ(metrics.counter("verify.failures")->Value(), 0);

  PhysicalPlan bad = MakeChainPlan();
  std::swap(bad.jobs[0], bad.jobs[1]);
  const Status status = VerifyPlanStatus(bad, {}, &metrics);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message().rfind("[verify.plan.dependency] ", 0), 0u)
      << status.message();
  EXPECT_EQ(metrics.counter("verify.runs")->Value(), 2);
  EXPECT_EQ(metrics.counter("verify.failures")->Value(), 1);
  EXPECT_GE(metrics.counter("verify.issues")->Value(), 1);
}

TEST(VerifyPipelineTest, ManagerRejectsCorruptedPlanPreAdmission) {
  SimDfs dfs{[] {
    DfsOptions options;
    options.num_nodes = 2;
    return options;
  }()};
  DfsTileStore store(&dfs);
  TileOpCostModel cost;
  ClusterConfig cluster{MachineProfile{}, 2, 2};
  SimEngine engine(cluster, SimEngineOptions{});
  MetricsRegistry metrics;
  WorkloadManagerOptions options;
  options.virtual_time = true;
  options.executor.real_mode = false;
  options.metrics = &metrics;
  WorkloadManager manager(&store, &engine, &cost, options);

  Submission submission;
  submission.name = "corrupt";
  submission.plan = MakeChainPlan();
  std::swap(submission.plan.jobs[0], submission.plan.jobs[1]);
  auto id = manager.Submit(std::move(submission));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(id.status().message().rfind("[verify.plan.dependency] ", 0), 0u)
      << id.status().message();
  EXPECT_EQ(metrics.counter("sched.rejected")->Value(), 1);
  EXPECT_EQ(metrics.counter("sched.rejected.verify")->Value(), 1);
}

TEST(VerifyPipelineTest, ManagerAdmitsHandBuiltPlanWithoutDeterminism) {
  // Hand-assembled plans carry no determinism stamp; the admission edge
  // must not demand one.
  SimDfs dfs{[] {
    DfsOptions options;
    options.num_nodes = 2;
    return options;
  }()};
  DfsTileStore store(&dfs);
  for (const char* name : {"A", "B"}) {
    TiledMatrix m = Square(name, 32);
    for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
        CUMULON_CHECK(
            store.PutMeta(m.name, TileId{r, c}, 16 + kTile * kTile * 8, -1)
                .ok());
      }
    }
  }
  TileOpCostModel cost;
  ClusterConfig cluster{MachineProfile{}, 2, 2};
  SimEngine engine(cluster, SimEngineOptions{});
  WorkloadManagerOptions options;
  options.virtual_time = true;
  options.executor.real_mode = false;
  WorkloadManager manager(&store, &engine, &cost, options);

  Submission submission;
  submission.name = "sound";
  submission.plan = MakeChainPlan();
  auto id = manager.Submit(std::move(submission));
  ASSERT_TRUE(id.ok()) << id.status();
  manager.Start();
  const PlanOutcome outcome = manager.Wait(*id);
  EXPECT_EQ(outcome.state, PlanState::kDone) << outcome.status;
  manager.Drain();
}

TEST(VerifyPassRegistryTest, SuiteEnumeratesAllPasses) {
  EXPECT_GE(LogicalPasses().size(), 2u);
  EXPECT_GE(PlanPasses().size(), 4u);
  for (const auto& pass : LogicalPasses()) {
    EXPECT_NE(pass.name, nullptr);
    EXPECT_NE(std::string(pass.reason).find("verify."), std::string::npos);
  }
  for (const auto& pass : PlanPasses()) {
    EXPECT_NE(pass.name, nullptr);
    EXPECT_NE(std::string(pass.reason).find("verify."), std::string::npos);
  }
}

}  // namespace
}  // namespace cumulon
