#include "exec/physical_plan.h"

#include "common/strings.h"

namespace cumulon {

std::string PhysicalPlan::DebugString() const {
  std::string out;
  for (const auto& job : jobs) {
    out += job->DebugString();
    out += "\n";
  }
  return out;
}

Status AddMatMul(const MatMulOperand& a, const MatMulOperand& b,
                 const TiledMatrix& out, const MatMulParams& params,
                 std::vector<EwStep> epilogue, PhysicalPlan* plan) {
  const std::string job_name = StrCat("mm_", out.name);
  auto mm = std::make_unique<MatMulJob>(job_name, a, b, out, params,
                                        epilogue);
  const int64_t nk = mm->NumKSplits();
  plan->jobs.push_back(std::move(mm));
  if (nk > 1) {
    std::vector<std::string> parts;
    parts.reserve(nk);
    for (int64_t p = 0; p < nk; ++p) {
      parts.push_back(MatMulJob::PartialName(out.name, p));
      plan->temporaries.push_back(parts.back());
    }
    plan->jobs.push_back(std::make_unique<SumJob>(
        StrCat("sum_", out.name), std::move(parts), out,
        std::move(epilogue)));
  }
  return Status::OK();
}

Status AddRowPanel(const TiledMatrix& x, const TiledMatrix& v,
                   std::vector<EwStep> steps, const TiledMatrix& out,
                   std::vector<EwStep> epilogue, PhysicalPlan* plan) {
  auto rp = std::make_unique<RowPanelJob>(StrCat("rp_", out.name), x, v, out,
                                          std::move(steps));
  const int64_t np = rp->NumPartials();
  plan->jobs.push_back(std::move(rp));
  std::vector<std::string> parts;
  parts.reserve(np);
  for (int64_t p = 0; p < np; ++p) {
    parts.push_back(MatMulJob::PartialName(out.name, p));
    plan->temporaries.push_back(parts.back());
  }
  plan->jobs.push_back(std::make_unique<SumJob>(
      StrCat("sum_", out.name), std::move(parts), out, std::move(epilogue),
      RowPanelJob::kMergeTilesPerTask));
  return Status::OK();
}

Status AddEwChain(const TiledMatrix& in, const TiledMatrix& out,
                  std::vector<EwStep> steps, PhysicalPlan* plan,
                  int64_t tiles_per_task) {
  plan->jobs.push_back(std::make_unique<EwChainJob>(
      StrCat("ew_", out.name), in, out, std::move(steps), tiles_per_task));
  return Status::OK();
}

Status AddTranspose(const TiledMatrix& in, const TiledMatrix& out,
                    PhysicalPlan* plan, int64_t tiles_per_task) {
  plan->jobs.push_back(std::make_unique<TransposeJob>(
      StrCat("tr_", out.name), in, out, tiles_per_task));
  return Status::OK();
}

Status AddAggregate(const TiledMatrix& in, const TiledMatrix& out,
                    AggKind kind, std::vector<EwStep> epilogue,
                    PhysicalPlan* plan, int64_t stripes_per_task) {
  plan->jobs.push_back(std::make_unique<AggregateJob>(
      StrCat("agg_", out.name), in, out, kind, std::move(epilogue),
      stripes_per_task));
  return Status::OK();
}

}  // namespace cumulon
