#ifndef CUMULON_LANG_EXPR_H_
#define CUMULON_LANG_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "matrix/tile_ops.h"

namespace cumulon {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Node kinds of the logical matrix algebra.
enum class ExprKind {
  kInput,
  kMatMul,
  kEwBinary,
  kEwUnary,
  kTranspose,
  kRowSums,  // rows x 1 fold
  kColSums,  // 1 x cols fold
};

/// An immutable logical expression over matrices. Users build programs from
/// these (directly or via the operator overloads below); the logical
/// optimizer rewrites them; Lower() turns them into physical job plans.
class Expr {
 public:
  /// A named matrix whose tiles already exist (a program input or the
  /// result of an earlier assignment).
  static ExprPtr Input(std::string name, int64_t rows, int64_t cols);

  /// Matrix product; inner dimensions must agree.
  static Result<ExprPtr> MatMul(ExprPtr a, ExprPtr b);

  /// Element-wise binary op; shapes must match.
  static Result<ExprPtr> EwBinary(BinaryOp op, ExprPtr a, ExprPtr b);

  /// Element-wise unary op with optional scalar parameter.
  static ExprPtr EwUnary(UnaryOp op, ExprPtr a, double scalar = 0.0);

  static ExprPtr Transpose(ExprPtr a);

  /// Row sums (rows x 1) / column sums (1 x cols) of a matrix.
  static ExprPtr RowSums(ExprPtr a);
  static ExprPtr ColSums(ExprPtr a);

  /// Sum of all entries, as a 1 x 1 matrix (column sums of the row sums).
  static ExprPtr SumAll(ExprPtr a);

  ExprKind kind() const { return kind_; }
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  const std::string& input_name() const { return input_name_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  BinaryOp bop() const { return bop_; }
  UnaryOp uop() const { return uop_; }
  double scalar() const { return scalar_; }

  /// True if a kMatMul node appears anywhere below (or at) this node.
  bool ContainsMatMul() const;

  std::string DebugString() const;

  /// Test-only backdoor: mints a node with NO factory validation, so the
  /// verifier's mutation tests (tests/verify_test.cc) can build malformed
  /// IR — wrong shapes, missing operands — that the public factories
  /// refuse to construct. Never call outside tests.
  static ExprPtr MakeUncheckedForTest(ExprKind kind, int64_t rows,
                                      int64_t cols, ExprPtr left,
                                      ExprPtr right,
                                      std::string input_name = "");

  /// Test-only backdoor: rewrites a child edge of an existing node in
  /// place (the IR is otherwise immutable), letting mutation tests tie a
  /// cycle into the DAG. Never call outside tests.
  static void MutateLeftForTest(const ExprPtr& node, ExprPtr new_left);

 private:
  Expr(ExprKind kind, int64_t rows, int64_t cols)
      : kind_(kind), rows_(rows), cols_(cols) {}

  ExprKind kind_;
  int64_t rows_;
  int64_t cols_;
  std::string input_name_;
  ExprPtr left_;
  ExprPtr right_;
  BinaryOp bop_ = BinaryOp::kAdd;
  UnaryOp uop_ = UnaryOp::kScale;
  double scalar_ = 0.0;
};

/// Ergonomic operators for building programs; these CHECK shape validity
/// (shape errors in a hand-written program are programmer errors).
ExprPtr operator*(const ExprPtr& a, const ExprPtr& b);   // matrix product
ExprPtr operator+(const ExprPtr& a, const ExprPtr& b);   // element-wise
ExprPtr operator-(const ExprPtr& a, const ExprPtr& b);   // element-wise
ExprPtr EMul(const ExprPtr& a, const ExprPtr& b);        // Hadamard
ExprPtr EDiv(const ExprPtr& a, const ExprPtr& b);        // element-wise /
ExprPtr Scale(const ExprPtr& a, double s);
ExprPtr T(const ExprPtr& a);                             // transpose

/// One statement of a program: target := expr. Targets become named
/// matrices and may be referenced by later assignments via Expr::Input.
struct Assignment {
  std::string target;
  ExprPtr expr;
};

/// A straight-line matrix program (iterative algorithms unroll their loop
/// bodies into repeated assignments, as the paper's workloads do).
struct Program {
  std::vector<Assignment> assignments;

  void Assign(std::string target, ExprPtr expr) {
    assignments.push_back({std::move(target), std::move(expr)});
  }

  std::string DebugString() const;
};

/// Unrolls an iterative algorithm: the body's assignments repeated `times`
/// times. Reassigned targets are versioned by lowering, so each iteration
/// reads the previous iteration's outputs (as the paper's iterative
/// workloads do).
Program Repeat(const Program& body, int times);

}  // namespace cumulon

#endif  // CUMULON_LANG_EXPR_H_
