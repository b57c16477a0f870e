#include "lang/lowering.h"

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "verify/verify.h"

namespace cumulon {

namespace {

/// An element-wise step whose binary operand is still an expression; the
/// operand is lowered to a matrix before the step becomes an exec EwStep.
struct RawStep {
  EwStep step;          // other_matrix filled in later for binary steps
  ExprPtr other;        // binary operand expression (null for unary)
};

/// An element-wise chain peeled off an expression: `raw` in application
/// order (raw[0] is applied first, closest to the base) and `base`, the
/// first node under the chain that is not element-wise.
struct Spine {
  std::vector<RawStep> raw;
  ExprPtr base;
};

/// Peels the chain of element-wise ops along `root`'s spine.
Spine PeelSpine(const ExprPtr& root) {
  Spine spine;
  ExprPtr node = root;
  while (true) {
    if (node->kind() == ExprKind::kEwUnary) {
      RawStep rs;
      rs.step = EwStep::Unary(node->uop(), node->scalar());
      spine.raw.insert(spine.raw.begin(), rs);
      node = node->left();
    } else if (node->kind() == ExprKind::kEwBinary) {
      // The spine must be a full-shaped side; when both sides are full,
      // continue into the one holding a multiply (enables fusion).
      auto is_full = [&](const ExprPtr& e) {
        return e->rows() == node->rows() && e->cols() == node->cols();
      };
      const bool left_full = is_full(node->left());
      const bool right_full = is_full(node->right());
      const bool spine_left =
          left_full && right_full
              ? (node->left()->ContainsMatMul() ||
                 !node->right()->ContainsMatMul())
              : left_full;
      RawStep rs;
      rs.other = spine_left ? node->right() : node->left();
      EwStep::Operand operand = EwStep::Operand::kFull;
      if (!is_full(rs.other)) {
        operand = rs.other->rows() == 1 ? EwStep::Operand::kRowVector
                                        : EwStep::Operand::kColVector;
      }
      rs.step = EwStep::Binary(node->bop(), /*other=*/"",
                               /*swapped=*/!spine_left, operand);
      spine.raw.insert(spine.raw.begin(), rs);
      node = spine_left ? node->left() : node->right();
    } else {
      break;
    }
  }
  spine.base = std::move(node);
  return spine;
}

/// A lowered binary-step operand paired with its broadcast kind, for
/// CheckOperandLayouts.
using StepOperand = std::pair<TiledMatrix, EwStep::Operand>;

class Lowerer {
 public:
  Lowerer(const std::map<std::string, TiledMatrix>& inputs,
          const LoweringOptions& options)
      : env_(inputs), options_(options) {
    // Caller bindings may carry versioned names minted by a previous
    // Lower() call (e.g. "x@v1" rebound by an iterative driver). Those
    // names are taken: a fresh target version must never collide with
    // them, or the new job would silently overwrite its own input.
    for (const auto& [target, matrix] : env_) taken_names_.insert(matrix.name);
  }

  Status LowerProgram(const Program& program) {
    for (const Assignment& a : program.assignments) {
      CUMULON_RETURN_IF_ERROR(LowerAssignment(a));
    }
    return Status::OK();
  }

  LoweredProgram Take() {
    LoweredProgram out;
    out.plan = std::move(plan_);
    out.outputs = std::move(outputs_);
    return out;
  }

 private:
  /// The split of a multiply of op(A) = `a` by op(B) = `b`. Without a
  /// chooser, a one-tile-column op(B) leaves bi = 0: the build shares each
  /// read of it among as many row panels as the cluster's slots allow.
  MatMulParams ChooseMatMulParams(const TileLayout& a, const TileLayout& b) {
    if (options_.mm_params) return options_.mm_params(a, b);
    return MatMulParams{b.grid_cols() == 1 ? 0 : 1, 1, 0};
  }

  std::string FreshTempName() {
    return StrCat(options_.temp_prefix, "_", temp_counter_++);
  }

  /// Name for an assignment target. Versioned whenever the bare name is
  /// already bound (as an input or an earlier assignment), so a matrix
  /// name always denotes exactly one immutable value — required both for
  /// CSE key stability and to avoid read/write races within a job.
  std::string TargetMatrixName(const std::string& target) {
    int version = ++target_versions_[target];
    if (version == 1 && env_.find(target) == env_.end() &&
        taken_names_.count(target) == 0) {
      taken_names_.insert(target);
      return target;
    }
    std::string name = StrCat(target, "@v", version);
    while (taken_names_.count(name) > 0) {
      version = ++target_versions_[target];
      name = StrCat(target, "@v", version);
    }
    taken_names_.insert(name);
    return name;
  }

  Status LowerAssignment(const Assignment& a) {
    const std::string out_name = TargetMatrixName(a.target);
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix out,
                             LowerInto(a.expr, out_name));
    // A superseded version produced by this program (never a caller-owned
    // input) is garbage once the plan finishes.
    auto previous = env_.find(a.target);
    if (previous != env_.end() &&
        produced_.count(previous->second.name) > 0) {
      plan_.temporaries.push_back(previous->second.name);
    }
    produced_.insert(out.name);
    env_.insert_or_assign(a.target, out);
    outputs_.insert_or_assign(a.target, out);
    return Status::OK();
  }

  /// Materializes `expr` as a matrix named `out_name` (creating whatever
  /// jobs that requires).
  Result<TiledMatrix> LowerInto(const ExprPtr& expr,
                                const std::string& out_name) {
    switch (expr->kind()) {
      case ExprKind::kInput: {
        // Aliasing an existing matrix: copy via an empty ew chain so the
        // target name really exists in the store.
        CUMULON_ASSIGN_OR_RETURN(TiledMatrix in, ResolveInput(expr));
        TiledMatrix out{out_name, in.layout};
        CUMULON_RETURN_IF_ERROR(AddEwChain(in, out, {}, &plan_));
        return out;
      }
      case ExprKind::kTranspose: {
        CUMULON_ASSIGN_OR_RETURN(TiledMatrix in, LowerValue(expr->left()));
        TiledMatrix out{out_name, in.layout.Transposed()};
        CUMULON_RETURN_IF_ERROR(AddTranspose(in, out, &plan_));
        return out;
      }
      case ExprKind::kMatMul:
        return LowerMultiply(expr, {}, out_name);
      case ExprKind::kEwUnary:
      case ExprKind::kEwBinary:
        return LowerEwSpine(expr, out_name);
      case ExprKind::kRowSums:
      case ExprKind::kColSums: {
        const AggKind kind = expr->kind() == ExprKind::kRowSums
                                 ? AggKind::kRowSums
                                 : AggKind::kColSums;
        CUMULON_ASSIGN_OR_RETURN(TiledMatrix in, LowerValue(expr->left()));
        TiledMatrix out{out_name, AggOutputLayout(in.layout, kind)};
        CUMULON_RETURN_IF_ERROR(AddAggregate(in, out, kind, {}, &plan_));
        return out;
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  /// Materializes `expr` as some matrix (fresh temp name unless it is
  /// already materialized, i.e. an input/earlier target, or an identical
  /// subexpression was lowered before — CSE).
  Result<TiledMatrix> LowerValue(const ExprPtr& expr) {
    if (expr->kind() == ExprKind::kInput) return ResolveInput(expr);
    std::string key;
    if (options_.enable_cse) {
      CUMULON_ASSIGN_OR_RETURN(key, ExprKey(expr));
      auto hit = cse_.find(key);
      if (hit != cse_.end()) return hit->second;
    }
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix out,
                             LowerInto(expr, FreshTempName()));
    plan_.temporaries.push_back(out.name);
    if (options_.enable_cse) cse_.insert_or_assign(key, out);
    return out;
  }

  /// A canonical string for an expression with its inputs resolved to
  /// concrete matrix names, so two structurally identical subexpressions
  /// over the same matrix *versions* share one key. Resolution makes keys
  /// stable across reassignments (an old key keeps naming the old
  /// version's matrix, which still exists).
  Result<std::string> ExprKey(const ExprPtr& expr) {
    switch (expr->kind()) {
      case ExprKind::kInput: {
        CUMULON_ASSIGN_OR_RETURN(TiledMatrix m, ResolveInput(expr));
        return StrCat("@", m.name);
      }
      case ExprKind::kMatMul: {
        CUMULON_ASSIGN_OR_RETURN(std::string l, ExprKey(expr->left()));
        CUMULON_ASSIGN_OR_RETURN(std::string r, ExprKey(expr->right()));
        return StrCat("(", l, "*", r, ")");
      }
      case ExprKind::kEwBinary: {
        CUMULON_ASSIGN_OR_RETURN(std::string l, ExprKey(expr->left()));
        CUMULON_ASSIGN_OR_RETURN(std::string r, ExprKey(expr->right()));
        return StrCat("(", l, " ", BinaryOpName(expr->bop()), " ", r, ")");
      }
      case ExprKind::kEwUnary: {
        CUMULON_ASSIGN_OR_RETURN(std::string l, ExprKey(expr->left()));
        return StrCat(UnaryOpName(expr->uop()), "[", expr->scalar(), "](", l,
                      ")");
      }
      case ExprKind::kTranspose: {
        CUMULON_ASSIGN_OR_RETURN(std::string l, ExprKey(expr->left()));
        return StrCat("T(", l, ")");
      }
      case ExprKind::kRowSums:
      case ExprKind::kColSums: {
        CUMULON_ASSIGN_OR_RETURN(std::string l, ExprKey(expr->left()));
        return StrCat(expr->kind() == ExprKind::kRowSums ? "rsum(" : "csum(",
                      l, ")");
      }
    }
    return Status::Internal("unhandled expression kind in ExprKey");
  }

  Result<TiledMatrix> ResolveInput(const ExprPtr& expr) {
    auto it = env_.find(expr->input_name());
    if (it == env_.end()) {
      return Status::NotFound(
          StrCat("unbound matrix '", expr->input_name(), "'"));
    }
    const TiledMatrix& m = it->second;
    if (m.layout.rows() != expr->rows() || m.layout.cols() != expr->cols()) {
      return Status::InvalidArgument(
          StrCat("matrix '", expr->input_name(), "' bound as ",
                 m.layout.ToString(), " but referenced as ", expr->rows(),
                 "x", expr->cols()));
    }
    return m;
  }

  /// Lowers one multiply operand. Under fusion a transpose is read in
  /// place by the multiply — its child is materialized, never the
  /// transpose itself; otherwise (ablation A1's one-job-per-operator
  /// plans) the transpose is a job of its own like any other operator.
  Result<MatMulOperand> LowerMultiplyOperand(const ExprPtr& expr) {
    if (options_.enable_fusion && expr->kind() == ExprKind::kTranspose) {
      CUMULON_ASSIGN_OR_RETURN(TiledMatrix stored, LowerValue(expr->left()));
      return MatMulOperand(std::move(stored), Orientation::kTransposed);
    }
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix stored, LowerValue(expr));
    return MatMulOperand(std::move(stored));
  }

  /// A matrix a lowering may or may not have produced.
  using MaybeMatrix = std::optional<TiledMatrix>;

  /// Lowers a multiply with an already-collected epilogue into `out_name`.
  Result<TiledMatrix> LowerMultiply(const ExprPtr& mm,
                                    std::vector<EwStep> epilogue,
                                    const std::string& out_name) {
    if (options_.enable_fusion) {
      CUMULON_ASSIGN_OR_RETURN(MaybeMatrix chained,
                               LowerRowPanelChain(mm, &epilogue, out_name));
      if (chained.has_value()) return *std::move(chained);
    }
    CUMULON_ASSIGN_OR_RETURN(MatMulOperand a,
                             LowerMultiplyOperand(mm->left()));
    CUMULON_ASSIGN_OR_RETURN(MatMulOperand b,
                             LowerMultiplyOperand(mm->right()));
    return AddMultiply(a, b, std::move(epilogue), out_name);
  }

  /// Emits the multiply job out_name = a * b with `epilogue`.
  Result<TiledMatrix> AddMultiply(const MatMulOperand& a,
                                  const MatMulOperand& b,
                                  std::vector<EwStep> epilogue,
                                  const std::string& out_name) {
    const TileLayout la = a.layout();
    const TileLayout lb = b.layout();
    if (!InnerAligned(la, lb)) {
      return Status::InvalidArgument(
          StrCat("tile grids misaligned for multiply: ", la.ToString(),
                 " * ", lb.ToString()));
    }
    TiledMatrix out{out_name, TileLayout(la.rows(), lb.cols(),
                                         la.tile_rows(), lb.tile_cols())};
    const MatMulParams params = ChooseMatMulParams(la, lb);
    CUMULON_RETURN_IF_ERROR(
        AddMatMul(a, b, out, params, std::move(epilogue), &plan_));
    return out;
  }

  /// Lowers `mm` = T(X) * f(X * V), with f an element-wise spine, as one
  /// read of X: a RowPanelJob plus the SumJob that merges its partials and
  /// carries `epilogue`. Applies only when both X's are the same matrix,
  /// V is not a transpose and spans one tile column, and neither X * V nor
  /// f(X * V) is in the CSE table; the chain adds neither to it. Returns
  /// nullopt otherwise. V's width is known only once V is lowered, so a
  /// chain that fails on it leaves X and V lowered; with CSE on, the
  /// two-multiply path then finds them in the table.
  Result<MaybeMatrix> LowerRowPanelChain(
      const ExprPtr& mm, std::vector<EwStep>* epilogue,
      const std::string& out_name) {
    if (mm->left()->kind() != ExprKind::kTranspose) return MaybeMatrix();
    const Spine f = PeelSpine(mm->right());
    if (f.base->kind() != ExprKind::kMatMul ||
        f.base->right()->kind() == ExprKind::kTranspose) {
      return MaybeMatrix();
    }
    CUMULON_ASSIGN_OR_RETURN(std::string x_key, ExprKey(mm->left()->left()));
    CUMULON_ASSIGN_OR_RETURN(std::string inner_x_key,
                             ExprKey(f.base->left()));
    CUMULON_ASSIGN_OR_RETURN(std::string xv_key, ExprKey(f.base));
    CUMULON_ASSIGN_OR_RETURN(std::string fxv_key, ExprKey(mm->right()));
    if (x_key != inner_x_key || cse_.count(xv_key) > 0 ||
        cse_.count(fxv_key) > 0) {
      return MaybeMatrix();
    }
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix x, LowerValue(f.base->left()));
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix v, LowerValue(f.base->right()));
    if (v.layout.grid_cols() != 1) return MaybeMatrix();
    if (!InnerAligned(x.layout, v.layout)) {
      return Status::InvalidArgument(
          StrCat("tile grids misaligned for multiply: ", x.layout.ToString(),
                 " * ", v.layout.ToString()));
    }
    std::vector<StepOperand> operands;
    CUMULON_ASSIGN_OR_RETURN(std::vector<EwStep> steps,
                             LowerSpineSteps(f.raw, &operands));
    CUMULON_RETURN_IF_ERROR(CheckOperandLayouts(
        operands, TileLayout(x.layout.rows(), v.layout.cols(),
                             x.layout.tile_rows(), v.layout.tile_cols())));
    TiledMatrix out{out_name,
                    TileLayout(x.layout.cols(), v.layout.cols(),
                               x.layout.tile_cols(), v.layout.tile_cols())};
    CUMULON_RETURN_IF_ERROR(AddRowPanel(x, v, std::move(steps), out,
                                        std::move(*epilogue), &plan_));
    return MaybeMatrix(std::move(out));
  }

  /// Lowers the binary operands of peeled steps and finalizes them as
  /// exec EwSteps, appending each operand to `operands`.
  Result<std::vector<EwStep>> LowerSpineSteps(
      const std::vector<RawStep>& raw, std::vector<StepOperand>* operands) {
    std::vector<EwStep> steps;
    steps.reserve(raw.size());
    for (const RawStep& rs : raw) {
      steps.push_back(rs.step);
      if (rs.other == nullptr) continue;
      CUMULON_ASSIGN_OR_RETURN(
          bool lowered, LowerProductOperand(rs.other, &steps.back(), operands));
      if (lowered) continue;
      CUMULON_ASSIGN_OR_RETURN(TiledMatrix other, LowerValue(rs.other));
      steps.back().other_matrix = other.name;
      operands->emplace_back(std::move(other), rs.step.operand);
    }
    return steps;
  }

  /// Lowers a full-shaped step operand P = L * R whose inner dimension
  /// lies within one tile as a product step: the consumer's task reads
  /// L(i,0) and R(0,j) and multiplies them itself, so P is never a job.
  /// Applies under fusion when neither factor is a transpose, P is not in
  /// the CSE table, L and R meet on one tile, and the inner dimension is no
  /// larger than P's first tile's rows and columns (neither factor tile
  /// outgrows the P tile it replaces); P stays out of the CSE table.
  /// Returns false, with nothing lowered, when the first conditions fail.
  /// The grid conditions need L and R lowered; when they fail, P is
  /// materialized from those factors as a job of its own.
  Result<bool> LowerProductOperand(const ExprPtr& expr, EwStep* step,
                                   std::vector<StepOperand>* operands) {
    if (!options_.enable_fusion || expr->kind() != ExprKind::kMatMul ||
        step->operand != EwStep::Operand::kFull ||
        expr->left()->kind() == ExprKind::kTranspose ||
        expr->right()->kind() == ExprKind::kTranspose) {
      return false;
    }
    std::string key;
    if (options_.enable_cse) {
      CUMULON_ASSIGN_OR_RETURN(key, ExprKey(expr));
      if (cse_.count(key) > 0) return false;
    }
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix l, LowerValue(expr->left()));
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix r, LowerValue(expr->right()));
    const TileLayout product(l.layout.rows(), r.layout.cols(),
                             l.layout.tile_rows(), r.layout.tile_cols());
    const int64_t inner = l.layout.cols();
    if (l.layout.grid_cols() == 1 && r.layout.grid_rows() == 1 &&
        inner <= product.TileRowsAt(0) && inner <= product.TileColsAt(0)) {
      *step = EwStep::Product(step->bop, l.name, r.name, inner,
                              step->swapped);
      operands->emplace_back(
          TiledMatrix{StrCat(l.name, "*", r.name), product},
          EwStep::Operand::kProduct);
      return true;
    }
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix p,
                             AddMultiply(l, r, {}, FreshTempName()));
    plan_.temporaries.push_back(p.name);
    if (options_.enable_cse) cse_.insert_or_assign(key, p);
    step->other_matrix = p.name;
    operands->emplace_back(std::move(p), EwStep::Operand::kFull);
    return true;
  }

  /// Lowers an expression whose root is element-wise: peels the chain of
  /// ew ops along its spine, fuses it into the producing multiply when
  /// possible, otherwise emits an EwChainJob.
  Result<TiledMatrix> LowerEwSpine(const ExprPtr& root,
                                   const std::string& out_name) {
    const Spine spine = PeelSpine(root);
    std::vector<StepOperand> operands;
    CUMULON_ASSIGN_OR_RETURN(std::vector<EwStep> steps,
                             LowerSpineSteps(spine.raw, &operands));

    // Fusion: the spine base is a multiply -> epilogue of that job.
    if (options_.enable_fusion && spine.base->kind() == ExprKind::kMatMul) {
      CUMULON_ASSIGN_OR_RETURN(
          TiledMatrix out,
          LowerMultiply(spine.base, std::move(steps), out_name));
      CUMULON_RETURN_IF_ERROR(CheckOperandLayouts(operands, out.layout));
      return out;
    }

    // Unfused: materialize the base, then one element-wise pass.
    CUMULON_ASSIGN_OR_RETURN(TiledMatrix base, LowerValue(spine.base));
    TiledMatrix out{out_name, base.layout};
    CUMULON_RETURN_IF_ERROR(CheckOperandLayouts(operands, out.layout));
    CUMULON_RETURN_IF_ERROR(AddEwChain(base, out, std::move(steps), &plan_));
    return out;
  }

  Status CheckOperandLayouts(const std::vector<StepOperand>& operands,
                             const TileLayout& out_layout) {
    for (const auto& [m, operand] : operands) {
      TileLayout expected = out_layout;
      switch (operand) {
        case EwStep::Operand::kFull:
        case EwStep::Operand::kProduct:
          break;
        case EwStep::Operand::kRowVector:
          expected = TileLayout(1, out_layout.cols(), 1,
                                out_layout.tile_cols());
          break;
        case EwStep::Operand::kColVector:
          expected = TileLayout(out_layout.rows(), 1,
                                out_layout.tile_rows(), 1);
          break;
      }
      if (!GridsAlign(m.layout, expected)) {
        return Status::InvalidArgument(
            StrCat("element-wise operand '", m.name, "' has layout ",
                   m.layout.ToString(), " but the step expects ",
                   expected.ToString(),
                   " (store inputs with a matching tile size)"));
      }
    }
    return Status::OK();
  }

  std::map<std::string, TiledMatrix> env_;
  const LoweringOptions& options_;
  PhysicalPlan plan_;
  std::map<std::string, TiledMatrix> outputs_;
  std::map<std::string, int> target_versions_;
  std::map<std::string, TiledMatrix> cse_;
  std::set<std::string> produced_;  // matrices created by this program
  /// Every matrix name this plan may not mint again: caller bindings
  /// (including versioned names from earlier Lower calls) plus names
  /// already assigned by TargetMatrixName.
  std::set<std::string> taken_names_;
  int temp_counter_ = 0;
};

}  // namespace

Result<LoweredProgram> Lower(const Program& program,
                             const std::map<std::string, TiledMatrix>& inputs,
                             const LoweringOptions& options) {
  Lowerer lowerer(inputs, options);
  CUMULON_RETURN_IF_ERROR(lowerer.LowerProgram(program));
  LoweredProgram lowered = lowerer.Take();

  // Stamp the determinism contract: the seed every randomized choice
  // derives from.
  lowered.plan.determinism.recorded = true;
  lowered.plan.determinism.seed = options.seed;

  // Post-lowering verification: lowering knows the exact resident set (the
  // caller's bindings), so this is the one edge where the dependency pass
  // can prove every consumed matrix exists. A failure here is a lowering
  // bug — fatal in debug builds, a typed verify.* error in release.
  PlanVerifyOptions verify_options;
  verify_options.check_external = true;
  for (const auto& [name, matrix] : inputs) {
    verify_options.external_matrices.insert(matrix.name);
  }
  verify_options.require_determinism = true;
  const Status verified = VerifyPlanStatus(lowered.plan, verify_options);
  if (!verified.ok()) {
    CUMULON_CHECK(!VerifyChecksAreFatal())
        << "lowering produced an invalid plan:\n"
        << verified.ToString() << "\n"
        << lowered.plan.DebugString();
    return verified;
  }
  return lowered;
}

}  // namespace cumulon
