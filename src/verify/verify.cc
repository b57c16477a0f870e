#include "verify/verify.h"

#include <utility>

#include "common/strings.h"
#include "exec/physical_job.h"

namespace cumulon {

bool VerifyChecksAreFatal() { return CUMULON_VERIFY_FATAL != 0; }

bool VerifyReport::Has(const std::string& reason) const {
  for (const VerifyIssue& issue : issues_) {
    if (issue.reason == reason) return true;
  }
  return false;
}

Status VerifyReport::ToStatus() const {
  if (issues_.empty()) return Status::OK();
  // Lead with the first issue's typed "[reason] " prefix so the slug
  // survives every Status-returning layer up to the wire (svc's
  // ErrorReason extracts it for the ERROR frame).
  std::string msg = StrCat("[", issues_[0].reason, "] ", issues_[0].message);
  if (issues_.size() > 1) {
    msg = StrCat(msg, " (+", issues_.size() - 1, " more: ");
    for (size_t i = 1; i < issues_.size(); ++i) {
      msg = StrCat(msg, i > 1 ? "; " : "", issues_[i].reason, ": ",
                   issues_[i].message);
    }
    msg = StrCat(msg, ")");
  }
  return Status::FailedPrecondition(std::move(msg));
}

std::string VerifyReport::ToString() const {
  if (issues_.empty()) return "ok";
  std::string out;
  for (const VerifyIssue& issue : issues_) {
    out = StrCat(out, issue.reason, ": ", issue.message, "\n");
  }
  return out;
}

namespace {

const char* KindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kInput:
      return "Input";
    case ExprKind::kMatMul:
      return "MatMul";
    case ExprKind::kEwBinary:
      return "EwBinary";
    case ExprKind::kEwUnary:
      return "EwUnary";
    case ExprKind::kTranspose:
      return "Transpose";
    case ExprKind::kRowSums:
      return "RowSums";
    case ExprKind::kColSums:
      return "ColSums";
  }
  return "?";
}

std::string NodeLabel(const Expr& node) {
  std::string label = StrCat(KindName(node.kind()), " ", node.rows(), "x",
                             node.cols());
  if (node.kind() == ExprKind::kInput) {
    label = StrCat(label, " '", node.input_name(), "'");
  }
  return label;
}

bool IsLeaf(ExprKind kind) { return kind == ExprKind::kInput; }
bool IsBinary(ExprKind kind) {
  return kind == ExprKind::kMatMul || kind == ExprKind::kEwBinary;
}

/// Collects every reachable node. Terminates on cyclic (corrupted) graphs
/// and reports the cycle; per-node passes then run over the collected set.
struct ExprWalk {
  std::vector<const Expr*> nodes;  // visit order
  bool cyclic = false;
};

ExprWalk CollectNodes(const ExprPtr& root) {
  ExprWalk walk;
  if (root == nullptr) return walk;
  // Iterative colored DFS: 1 = on the current path, 2 = done. A child on
  // the current path closes a cycle.
  std::map<const Expr*, int> color;
  struct Frame {
    const Expr* node;
    int next_child;  // 0 = left, 1 = right, 2 = done
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  color[root.get()] = 1;
  walk.nodes.push_back(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Expr* child = nullptr;
    if (frame.next_child == 0) {
      child = frame.node->left().get();
    } else if (frame.next_child == 1) {
      child = frame.node->right().get();
    } else {
      color[frame.node] = 2;
      stack.pop_back();
      continue;
    }
    ++frame.next_child;
    if (child == nullptr) continue;
    auto it = color.find(child);
    if (it == color.end()) {
      color[child] = 1;
      walk.nodes.push_back(child);
      stack.push_back({child, 0});
    } else if (it->second == 1) {
      walk.cyclic = true;  // back edge onto the active path
    }
  }
  return walk;
}

void CheckNodeShape(const Expr& node, VerifyReport* report) {
  if (node.rows() <= 0 || node.cols() <= 0) {
    report->Add("verify.expr.shape",
                StrCat(NodeLabel(node), ": non-positive dimensions"));
    return;
  }
  const Expr* l = node.left().get();
  const Expr* r = node.right().get();
  switch (node.kind()) {
    case ExprKind::kInput:
      return;
    case ExprKind::kMatMul: {
      if (l == nullptr || r == nullptr) return;  // dangling pass reports
      if (l->cols() != r->rows()) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": inner dimensions disagree (",
                           l->cols(), " vs ", r->rows(), ")"));
      }
      if (node.rows() != l->rows() || node.cols() != r->cols()) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": result shape is not ",
                           l->rows(), "x", r->cols()));
      }
      return;
    }
    case ExprKind::kEwBinary: {
      if (l == nullptr || r == nullptr) return;
      // One side carries the full result shape; the other is the same
      // shape or a broadcast row (1 x cols) / column (rows x 1) vector.
      auto full = [&](const Expr* e) {
        return e->rows() == node.rows() && e->cols() == node.cols();
      };
      auto broadcastable = [&](const Expr* e) {
        return full(e) || (e->rows() == 1 && e->cols() == node.cols()) ||
               (e->cols() == 1 && e->rows() == node.rows());
      };
      if (!((full(l) && broadcastable(r)) || (full(r) && broadcastable(l)))) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": operands ", l->rows(), "x",
                           l->cols(), " and ", r->rows(), "x", r->cols(),
                           " do not combine element-wise to this shape"));
      }
      return;
    }
    case ExprKind::kEwUnary: {
      if (l == nullptr) return;
      if (node.rows() != l->rows() || node.cols() != l->cols()) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": shape differs from operand ",
                           l->rows(), "x", l->cols()));
      }
      return;
    }
    case ExprKind::kTranspose: {
      if (l == nullptr) return;
      if (node.rows() != l->cols() || node.cols() != l->rows()) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": not the transpose of ",
                           l->rows(), "x", l->cols()));
      }
      return;
    }
    case ExprKind::kRowSums: {
      if (l == nullptr) return;
      if (node.rows() != l->rows() || node.cols() != 1) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": row sums of ", l->rows(), "x",
                           l->cols(), " must be ", l->rows(), "x1"));
      }
      return;
    }
    case ExprKind::kColSums: {
      if (l == nullptr) return;
      if (node.rows() != 1 || node.cols() != l->cols()) {
        report->Add("verify.expr.shape",
                    StrCat(NodeLabel(node), ": column sums of ", l->rows(),
                           "x", l->cols(), " must be 1x", l->cols()));
      }
      return;
    }
  }
}

void CheckNodeEdges(const Expr& node, VerifyReport* report) {
  const bool has_left = node.left() != nullptr;
  const bool has_right = node.right() != nullptr;
  if (IsLeaf(node.kind())) {
    if (node.input_name().empty()) {
      report->Add("verify.expr.dangling",
                  StrCat(NodeLabel(node), ": input has no matrix name"));
    }
    if (has_left || has_right) {
      report->Add("verify.expr.dangling",
                  StrCat(NodeLabel(node), ": leaf node has child edges"));
    }
    return;
  }
  if (!has_left) {
    report->Add("verify.expr.dangling",
                StrCat(NodeLabel(node), ": missing left operand"));
  }
  if (IsBinary(node.kind()) && !has_right) {
    report->Add("verify.expr.dangling",
                StrCat(NodeLabel(node), ": missing right operand"));
  }
  if (!IsBinary(node.kind()) && has_right) {
    report->Add("verify.expr.dangling",
                StrCat(NodeLabel(node), ": unary node has a right operand"));
  }
}

/// Structural key of a node given its children's keys (name-based, the
/// same equivalence lowering's CSE uses before input resolution).
std::string StructuralKey(const Expr& node, const std::string& l,
                          const std::string& r) {
  switch (node.kind()) {
    case ExprKind::kInput:
      return StrCat("@", node.input_name());
    case ExprKind::kMatMul:
      return StrCat("(", l, "*", r, ")");
    case ExprKind::kEwBinary:
      return StrCat("(", l, " ", BinaryOpName(node.bop()), " ", r, ")");
    case ExprKind::kEwUnary:
      return StrCat(UnaryOpName(node.uop()), "[", node.scalar(), "](", l,
                    ")");
    case ExprKind::kTranspose:
      return StrCat("T(", l, ")");
    case ExprKind::kRowSums:
      return StrCat("rsum(", l, ")");
    case ExprKind::kColSums:
      return StrCat("csum(", l, ")");
  }
  return "?";
}

/// Memoized bottom-up structural key (each shared node keyed once).
const std::string& KeyOf(const Expr* node,
                         std::map<const Expr*, std::string>* memo) {
  static const std::string kEmpty;
  if (node == nullptr) return kEmpty;
  auto it = memo->find(node);
  if (it != memo->end()) return it->second;
  const std::string l = KeyOf(node->left().get(), memo);
  const std::string r = KeyOf(node->right().get(), memo);
  return memo->emplace(node, StructuralKey(*node, l, r)).first->second;
}

/// CSE soundness: two nodes the structural key equates must agree on
/// shape, or lowering's key-indexed reuse substitutes a wrong-shaped
/// matrix. Skipped on cyclic graphs (the key recursion would not
/// terminate; the cycle pass already failed the report).
void CheckCseSoundness(const ExprWalk& walk, VerifyReport* report) {
  if (walk.cyclic) return;
  std::map<const Expr*, std::string> keys;
  std::map<std::string, const Expr*> first_with_key;
  for (const Expr* node : walk.nodes) {
    const std::string& key = KeyOf(node, &keys);
    auto [pos, inserted] = first_with_key.emplace(key, node);
    if (!inserted) {
      const Expr* other = pos->second;
      if (other->rows() != node->rows() || other->cols() != node->cols()) {
        report->Add("verify.expr.cse",
                    StrCat("structurally equal subtrees '", key,
                           "' have shapes ", other->rows(), "x",
                           other->cols(), " and ", node->rows(), "x",
                           node->cols()));
      }
    }
  }
}

VerifyReport VerifyExprInternal(const ExprPtr& root) {
  VerifyReport report;
  if (root == nullptr) {
    report.Add("verify.expr.dangling", "null expression root");
    return report;
  }
  const ExprWalk walk = CollectNodes(root);
  if (walk.cyclic) {
    report.Add("verify.expr.cycle",
               StrCat("expression graph rooted at ", NodeLabel(*root),
                      " contains a cycle"));
  }
  for (const Expr* node : walk.nodes) {
    CheckNodeEdges(*node, &report);
    CheckNodeShape(*node, &report);
  }
  CheckCseSoundness(walk, &report);
  return report;
}

/// Every Input leaf of every assignment resolves — against an earlier
/// target or an external binding — with a matching shape.
void PassProgramBindings(const Program& program,
                         const LogicalVerifyOptions& options,
                         VerifyReport* report) {
  std::map<std::string, std::pair<int64_t, int64_t>> bound =
      options.bindings;
  for (const Assignment& a : program.assignments) {
    if (a.expr == nullptr) continue;  // per-expr pass reports the null
    for (const Expr* node : CollectNodes(a.expr).nodes) {
      if (node->kind() != ExprKind::kInput) continue;
      auto it = bound.find(node->input_name());
      if (it == bound.end()) {
        if (options.require_bound) {
          report->Add("verify.program.unbound",
                      StrCat("assignment '", a.target, "' reads matrix '",
                             node->input_name(),
                             "' which is neither an input binding nor an "
                             "earlier target"));
        }
        continue;
      }
      if (it->second.first != node->rows() ||
          it->second.second != node->cols()) {
        report->Add("verify.program.unbound",
                    StrCat("assignment '", a.target, "' reads matrix '",
                           node->input_name(), "' as ", node->rows(), "x",
                           node->cols(), " but it is bound as ",
                           it->second.first, "x", it->second.second));
      }
    }
    bound.insert_or_assign(a.target, std::make_pair(a.expr->rows(),
                                                    a.expr->cols()));
  }
}

void PassProgramExprs(const Program& program, const LogicalVerifyOptions&,
                      VerifyReport* report) {
  for (const Assignment& a : program.assignments) {
    VerifyReport sub = VerifyExprInternal(a.expr);
    for (const VerifyIssue& issue : sub.issues()) {
      report->Add(issue.reason,
                  StrCat("assignment '", a.target, "': ", issue.message));
    }
  }
}

// ---------------------------------------------------------------------------
// Physical-plan passes.

void CheckSplit(const MatMulParams& params, int64_t gi, int64_t gj,
                int64_t gk, const std::string& where, VerifyReport* report) {
  // bi = 0 is "sized by the build" (MatMulJob::RowPanelsPerTask), which
  // tiles any grid; the executor's coverage check sees the resolved one.
  if (params.bi < 0 || params.bj < 1) {
    report->Add("verify.split",
                StrCat(where, ": block extents bi=", params.bi,
                       " bj=", params.bj,
                       " must be bi >= 0 (0 = sized for the cluster) and"
                       " bj >= 1"));
    return;
  }
  if (params.bk < 0) {
    report->Add("verify.split",
                StrCat(where, ": bk=", params.bk,
                       " is negative (use 0 for no split-k)"));
    return;
  }
  if (gi < 0 || gj < 0 || gk < 0) return;  // shape-generic screening only
  // Ceil-division tiling arithmetic: the block ranges must cover the grid
  // exactly, with a final short tail in [1, b]. This recomputes the
  // coverage from first principles instead of trusting the job's loops.
  auto covers = [&](int64_t grid, int64_t block, const char* axis) {
    const int64_t blocks = (grid + block - 1) / block;
    const int64_t tail = grid - (blocks - 1) * block;
    if (blocks < 1 || tail < 1 || tail > block ||
        (blocks - 1) * block + tail != grid) {
      report->Add("verify.split",
                  StrCat(where, ": blocks of ", block, " cannot tile the ",
                         axis, " grid of ", grid));
    }
  };
  if (params.bi > 0) covers(gi, params.bi, "i");
  covers(gj, params.bj, "j");
  if (params.bk > 0) covers(gk, params.bk, "k");
}

/// Split arithmetic over the job's logical grid: op(A) is gi x gk and
/// op(B) is gk x gj, whichever way each operand is stored.
void CheckJobSplit(const MatMulJob& mm, const std::string& where,
                   VerifyReport* report) {
  const TileLayout la = mm.a().layout();
  CheckSplit(mm.params(), la.grid_rows(), mm.b().layout().grid_cols(),
             la.grid_cols(), where, report);
}

void PassPlanSplits(const PhysicalPlan& plan, const PlanVerifyOptions&,
                    VerifyReport* report) {
  for (const auto& job : plan.jobs) {
    const auto* mm = dynamic_cast<const MatMulJob*>(job.get());
    if (mm == nullptr) continue;
    CheckJobSplit(*mm, StrCat("job '", mm->name(), "'"), report);
  }
}

/// Job-dependency soundness over the sequential job order: a matrix is
/// produced by at most one job, every consumer runs after its producer
/// (a violation is exactly a cycle in the implicit dependency DAG), and —
/// when the caller knows the resident set — every consumed matrix is
/// either produced in-plan or already in the DFS.
void PassPlanDependencies(const PhysicalPlan& plan,
                          const PlanVerifyOptions& options,
                          VerifyReport* report) {
  std::map<std::string, size_t> producer;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    if (plan.jobs[j] == nullptr) {
      report->Add("verify.plan.dependency",
                  StrCat("job #", j, " is null"));
      continue;
    }
    for (const std::string& out : plan.jobs[j]->OutputMatrices()) {
      auto [pos, inserted] = producer.emplace(out, j);
      if (!inserted) {
        report->Add("verify.plan.dependency",
                    StrCat("matrix '", out, "' is produced by both job '",
                           plan.jobs[pos->second]->name(), "' and job '",
                           plan.jobs[j]->name(), "'"));
      }
    }
  }
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    if (plan.jobs[j] == nullptr) continue;
    for (const std::string& in : plan.jobs[j]->InputMatrices()) {
      auto it = producer.find(in);
      if (it != producer.end()) {
        if (it->second >= j) {
          report->Add(
              "verify.plan.dependency",
              StrCat("job '", plan.jobs[j]->name(), "' consumes '", in,
                     "' which is not produced until job '",
                     plan.jobs[it->second]->name(),
                     "' (dependency cycle / order violation)"));
        }
      } else if (options.check_external &&
                 options.external_matrices.count(in) == 0) {
        report->Add("verify.plan.dependency",
                    StrCat("job '", plan.jobs[j]->name(), "' consumes '", in,
                           "' which no job produces and which is not "
                           "resident in the DFS"));
      }
    }
  }
}

void PassPlanBudget(const PhysicalPlan&, const PlanVerifyOptions& options,
                    VerifyReport* report) {
  if (options.memory_budget_bytes <= 0) return;
  if (options.cache_reserve_bytes >= options.memory_budget_bytes) {
    report->Add("verify.budget.infeasible",
                StrCat("memory_budget_bytes (", options.memory_budget_bytes,
                       ") does not cover the tile cache's per-node "
                       "reservation (", options.cache_reserve_bytes, ")"));
  }
}

void PassPlanDeterminism(const PhysicalPlan& plan,
                         const PlanVerifyOptions& options,
                         VerifyReport* report) {
  if (!plan.determinism.recorded && options.require_determinism) {
    report->Add("verify.plan.determinism",
                "plan carries no determinism contract (seed); replays are "
                "not guaranteed bit-identical");
  }
}

}  // namespace

const std::vector<LogicalPassInfo>& LogicalPasses() {
  static const std::vector<LogicalPassInfo> passes = {
      {"expr-invariants",
       "verify.expr.shape / verify.expr.cycle / verify.expr.dangling / "
       "verify.expr.cse",
       &PassProgramExprs},
      {"program-bindings", "verify.program.unbound", &PassProgramBindings},
  };
  return passes;
}

const std::vector<PlanPassInfo>& PlanPasses() {
  static const std::vector<PlanPassInfo> passes = {
      {"job-dependencies", "verify.plan.dependency", &PassPlanDependencies},
      {"matmul-splits", "verify.split", &PassPlanSplits},
      {"budget-feasibility", "verify.budget.infeasible", &PassPlanBudget},
      {"determinism-contract", "verify.plan.determinism",
       &PassPlanDeterminism},
  };
  return passes;
}

VerifyReport VerifyExpr(const ExprPtr& root) {
  return VerifyExprInternal(root);
}

VerifyReport VerifyProgram(const Program& program,
                           const LogicalVerifyOptions& options) {
  VerifyReport report;
  for (const LogicalPassInfo& pass : LogicalPasses()) {
    pass.run(program, options, &report);
  }
  return report;
}

VerifyReport VerifyPlan(const PhysicalPlan& plan,
                        const PlanVerifyOptions& options) {
  VerifyReport report;
  for (const PlanPassInfo& pass : PlanPasses()) {
    pass.run(plan, options, &report);
  }
  return report;
}

VerifyReport VerifyMatMulSplit(const MatMulParams& params, int64_t gi,
                               int64_t gj, int64_t gk) {
  VerifyReport report;
  CheckSplit(params, gi, gj, gk, StrCat("split ", params.ToString()),
             &report);
  return report;
}

namespace {

Status Finish(const VerifyReport& report, const char* what,
              MetricsRegistry* metrics, Tracer* tracer) {
  MetricsRegistry* reg =
      metrics != nullptr ? metrics : MetricsRegistry::Default();
  reg->counter("verify.runs")->Increment();
  if (!report.ok()) {
    reg->counter("verify.failures")->Increment();
    reg->counter("verify.issues")
        ->Add(static_cast<int64_t>(report.issues().size()));
  }
  Tracer* tr = tracer != nullptr ? tracer : GlobalTracer();
  if (tr != nullptr) {
    TraceSpan span;
    span.name = what;
    span.category = "verify";
    span.parent_id = -1;  // driver-lane marker, never under a job span
    span.machine = -1;
    span.args.emplace_back("issues",
                           static_cast<double>(report.issues().size()));
    tr->AddSpan(std::move(span));
  }
  return report.ToStatus();
}

}  // namespace

Status VerifyProgramStatus(const Program& program,
                           const LogicalVerifyOptions& options,
                           MetricsRegistry* metrics, Tracer* tracer) {
  return Finish(VerifyProgram(program, options), "verify-program", metrics,
                tracer);
}

Status VerifyPlanStatus(const PhysicalPlan& plan,
                        const PlanVerifyOptions& options,
                        MetricsRegistry* metrics, Tracer* tracer) {
  return Finish(VerifyPlan(plan, options), "verify-plan", metrics, tracer);
}

}  // namespace cumulon
