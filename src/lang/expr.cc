#include "lang/expr.h"

#include "common/strings.h"

namespace cumulon {

namespace {
// Expr's constructor is private; this helper mints instances.
struct ExprBuilder : Expr {};
}  // namespace

ExprPtr Expr::Input(std::string name, int64_t rows, int64_t cols) {
  CUMULON_CHECK_GT(rows, 0);
  CUMULON_CHECK_GT(cols, 0);
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kInput, rows, cols));
  e->input_name_ = std::move(name);
  return e;
}

ExprPtr Expr::MakeUncheckedForTest(ExprKind kind, int64_t rows, int64_t cols,
                                   ExprPtr left, ExprPtr right,
                                   std::string input_name) {
  auto e = std::shared_ptr<Expr>(new Expr(kind, rows, cols));
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  e->input_name_ = std::move(input_name);
  return e;
}

void Expr::MutateLeftForTest(const ExprPtr& node, ExprPtr new_left) {
  // A tied cycle keeps its shared_ptr graph alive: a test that ties one
  // must untie it before the nodes go out of scope, or they leak.
  const_cast<Expr*>(node.get())->left_ = std::move(new_left);
}

Result<ExprPtr> Expr::MatMul(ExprPtr a, ExprPtr b) {
  if (a == nullptr || b == nullptr) {
    return Status::InvalidArgument("MatMul: null operand");
  }
  if (a->cols() != b->rows()) {
    return Status::InvalidArgument(
        StrCat("MatMul shape mismatch: ", a->rows(), "x", a->cols(), " * ",
               b->rows(), "x", b->cols()));
  }
  auto e = std::shared_ptr<Expr>(
      new Expr(ExprKind::kMatMul, a->rows(), b->cols()));
  e->left_ = std::move(a);
  e->right_ = std::move(b);
  return ExprPtr(e);
}

Result<ExprPtr> Expr::EwBinary(BinaryOp op, ExprPtr a, ExprPtr b) {
  if (a == nullptr || b == nullptr) {
    return Status::InvalidArgument("EwBinary: null operand");
  }
  // Same shape, or one side a broadcastable 1 x cols / rows x 1 vector.
  const bool same = a->rows() == b->rows() && a->cols() == b->cols();
  const bool b_row_vec = b->rows() == 1 && b->cols() == a->cols();
  const bool b_col_vec = b->cols() == 1 && b->rows() == a->rows();
  const bool a_row_vec = a->rows() == 1 && a->cols() == b->cols();
  const bool a_col_vec = a->cols() == 1 && a->rows() == b->rows();
  if (!same && !b_row_vec && !b_col_vec && !a_row_vec && !a_col_vec) {
    return Status::InvalidArgument(
        StrCat("EwBinary shape mismatch: ", a->rows(), "x", a->cols(), " vs ",
               b->rows(), "x", b->cols()));
  }
  const int64_t rows = same || b_row_vec || b_col_vec ? a->rows() : b->rows();
  const int64_t cols = same || b_row_vec || b_col_vec ? a->cols() : b->cols();
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kEwBinary, rows, cols));
  e->bop_ = op;
  e->left_ = std::move(a);
  e->right_ = std::move(b);
  return ExprPtr(e);
}

ExprPtr Expr::EwUnary(UnaryOp op, ExprPtr a, double scalar) {
  CUMULON_CHECK(a != nullptr);
  auto e = std::shared_ptr<Expr>(
      new Expr(ExprKind::kEwUnary, a->rows(), a->cols()));
  e->uop_ = op;
  e->scalar_ = scalar;
  e->left_ = std::move(a);
  return e;
}

ExprPtr Expr::Transpose(ExprPtr a) {
  CUMULON_CHECK(a != nullptr);
  auto e = std::shared_ptr<Expr>(
      new Expr(ExprKind::kTranspose, a->cols(), a->rows()));
  e->left_ = std::move(a);
  return e;
}

ExprPtr Expr::RowSums(ExprPtr a) {
  CUMULON_CHECK(a != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kRowSums, a->rows(), 1));
  e->left_ = std::move(a);
  return e;
}

ExprPtr Expr::ColSums(ExprPtr a) {
  CUMULON_CHECK(a != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kColSums, 1, a->cols()));
  e->left_ = std::move(a);
  return e;
}

ExprPtr Expr::SumAll(ExprPtr a) { return ColSums(RowSums(std::move(a))); }

bool Expr::ContainsMatMul() const {
  if (kind_ == ExprKind::kMatMul) return true;
  if (left_ != nullptr && left_->ContainsMatMul()) return true;
  if (right_ != nullptr && right_->ContainsMatMul()) return true;
  return false;
}

std::string Expr::DebugString() const {
  switch (kind_) {
    case ExprKind::kInput:
      return input_name_;
    case ExprKind::kMatMul:
      return StrCat("(", left_->DebugString(), " * ", right_->DebugString(),
                    ")");
    case ExprKind::kEwBinary:
      return StrCat("(", left_->DebugString(), " .", BinaryOpName(bop_), " ",
                    right_->DebugString(), ")");
    case ExprKind::kEwUnary:
      return StrCat(UnaryOpName(uop_), "(", left_->DebugString(), ", ",
                    scalar_, ")");
    case ExprKind::kTranspose:
      return StrCat(left_->DebugString(), "^T");
    case ExprKind::kRowSums:
      return StrCat("row_sums(", left_->DebugString(), ")");
    case ExprKind::kColSums:
      return StrCat("col_sums(", left_->DebugString(), ")");
  }
  return "?";
}

namespace {
ExprPtr CheckedBinary(BinaryOp op, const ExprPtr& a, const ExprPtr& b) {
  auto r = Expr::EwBinary(op, a, b);
  CUMULON_CHECK(r.ok()) << r.status();
  return std::move(r).value();
}
}  // namespace

ExprPtr operator*(const ExprPtr& a, const ExprPtr& b) {
  auto r = Expr::MatMul(a, b);
  CUMULON_CHECK(r.ok()) << r.status();
  return std::move(r).value();
}

ExprPtr operator+(const ExprPtr& a, const ExprPtr& b) {
  return CheckedBinary(BinaryOp::kAdd, a, b);
}

ExprPtr operator-(const ExprPtr& a, const ExprPtr& b) {
  return CheckedBinary(BinaryOp::kSub, a, b);
}

ExprPtr EMul(const ExprPtr& a, const ExprPtr& b) {
  return CheckedBinary(BinaryOp::kMul, a, b);
}

ExprPtr EDiv(const ExprPtr& a, const ExprPtr& b) {
  return CheckedBinary(BinaryOp::kDiv, a, b);
}

ExprPtr Scale(const ExprPtr& a, double s) {
  return Expr::EwUnary(UnaryOp::kScale, a, s);
}

ExprPtr T(const ExprPtr& a) { return Expr::Transpose(a); }

Program Repeat(const Program& body, int times) {
  CUMULON_CHECK_GE(times, 0);
  Program out;
  for (int i = 0; i < times; ++i) {
    for (const Assignment& a : body.assignments) {
      out.Assign(a.target, a.expr);
    }
  }
  return out;
}

std::string Program::DebugString() const {
  std::string out;
  for (const Assignment& a : assignments) {
    out += a.target;
    out += " := ";
    out += a.expr->DebugString();
    out += "\n";
  }
  return out;
}

}  // namespace cumulon
