#ifndef CUMULON_EXEC_PHYSICAL_PLAN_H_
#define CUMULON_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/physical_job.h"

namespace cumulon {

/// The determinism contract of a plan: everything a replay needs to be
/// bit-identical. Stamped by Lower() (the seed all randomized choices
/// derive from; every reduction folds in one fixed order, so the seed is
/// all there is to record) and checked at admission by the plan verifier
/// (verify.plan.determinism in src/verify).
struct PlanDeterminism {
  bool recorded = false;
  uint64_t seed = 0;
};

/// An executable plan: jobs run sequentially in order (Cumulon materializes
/// every job's output in the DFS, so inter-job dependencies are implicit in
/// the matrix names). `temporaries` lists intermediate matrices the
/// executor may delete once the plan finishes.
struct PhysicalPlan {
  std::vector<std::unique_ptr<PhysicalJob>> jobs;
  std::vector<std::string> temporaries;
  PlanDeterminism determinism;

  PhysicalPlan() = default;
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  std::string DebugString() const;
};

/// Appends the job(s) computing out = op(A) * op(B) with the fused
/// element-wise `epilogue`; each operand is read as stored or transposed
/// in place (MatMulOperand). With split-k parameters this is a MatMulJob
/// producing partial-product matrices plus a SumJob merging them (the
/// partials are registered as temporaries); otherwise a single MatMulJob.
Status AddMatMul(const MatMulOperand& a, const MatMulOperand& b,
                 const TiledMatrix& out, const MatMulParams& params,
                 std::vector<EwStep> epilogue, PhysicalPlan* plan);

/// Appends the jobs computing out = epilogue(X^T * steps(X * V)) from one
/// read of X: a RowPanelJob writing one partial of out per task, and a
/// SumJob merging them with `epilogue` (the partials are registered as
/// temporaries). V must span one tile column.
Status AddRowPanel(const TiledMatrix& x, const TiledMatrix& v,
                   std::vector<EwStep> steps, const TiledMatrix& out,
                   std::vector<EwStep> epilogue, PhysicalPlan* plan);

/// Appends an element-wise chain job out = steps(in).
Status AddEwChain(const TiledMatrix& in, const TiledMatrix& out,
                  std::vector<EwStep> steps, PhysicalPlan* plan,
                  int64_t tiles_per_task = 8);

/// Appends a transpose job out = in^T. Only for a transpose no multiply
/// consumes: a multiply reads its transposed operand in place.
Status AddTranspose(const TiledMatrix& in, const TiledMatrix& out,
                    PhysicalPlan* plan, int64_t tiles_per_task = 8);

/// Appends an aggregation job out = agg(in) with a fused epilogue.
Status AddAggregate(const TiledMatrix& in, const TiledMatrix& out,
                    AggKind kind, std::vector<EwStep> epilogue,
                    PhysicalPlan* plan, int64_t stripes_per_task = 1);

}  // namespace cumulon

#endif  // CUMULON_EXEC_PHYSICAL_PLAN_H_
