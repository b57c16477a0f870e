#ifndef CUMULON_EXEC_EW_STEP_H_
#define CUMULON_EXEC_EW_STEP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "matrix/tile_ops.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {

/// One element-wise step in a fused chain. Fusing element-wise work into
/// the job that produces (or consumes) a matrix — instead of running it as
/// its own MapReduce pass — is one of Cumulon's headline operator-level
/// optimizations (ablation A1).
///
/// A step transforms the job's running value v tile-by-tile:
///   unary:            v = uop(v, scalar)
///   binary:           v = bop(v, other)      (swapped: v = bop(other, v))
/// where `other` is a matrix with the same tile layout as the job output,
/// or — for broadcast steps — a 1 x cols row vector / rows x 1 column
/// vector applied across the value (centering, normalization), or — for
/// product steps — L * R computed in the step from one tile of each
/// factor, because the inner dimension fits within one tile (GNMF's
/// denominators (W^T W) H and W (H H^T)).
struct EwStep {
  enum class Kind { kUnary, kBinary };

  /// Shape of a binary step's operand relative to the job output.
  /// kProduct: the operand other_matrix * right_factor is never stored;
  /// output tile (i,j) reads factor tiles L(i,0) and R(0,j).
  enum class Operand { kFull, kRowVector, kColVector, kProduct };

  Kind kind = Kind::kUnary;

  // kUnary
  UnaryOp uop = UnaryOp::kScale;
  double scalar = 1.0;

  // kBinary
  BinaryOp bop = BinaryOp::kAdd;
  std::string other_matrix;
  bool swapped = false;  // result = bop(other, v) instead of bop(v, other)
  Operand operand = Operand::kFull;

  // kProduct: other_matrix is the left factor L, right_factor the right
  // factor R, and `inner` the dimension they share (L's columns).
  std::string right_factor;
  int64_t inner = 0;

  static EwStep Unary(UnaryOp op, double scalar = 0.0) {
    EwStep s;
    s.kind = Kind::kUnary;
    s.uop = op;
    s.scalar = scalar;
    return s;
  }

  static EwStep Binary(BinaryOp op, std::string other, bool swapped = false,
                       Operand operand = Operand::kFull) {
    EwStep s;
    s.kind = Kind::kBinary;
    s.bop = op;
    s.other_matrix = std::move(other);
    s.swapped = swapped;
    s.operand = operand;
    return s;
  }

  static EwStep Product(BinaryOp op, std::string left, std::string right,
                        int64_t inner, bool swapped = false) {
    EwStep s = Binary(op, std::move(left), swapped, Operand::kProduct);
    s.right_factor = std::move(right);
    s.inner = inner;
    return s;
  }

  std::string ToString() const;
};

/// Applies `step` to `value` in place. For binary steps `other` must be
/// non-null and shape-compatible (full or broadcast per step.operand; a
/// product step's `other` is the computed L * R tile).
/// `mode` selects the tile-kernel implementation (matrix/kernel_config.h);
/// element-wise kernels are bit-identical across modes, so this is purely a
/// performance knob. The two-operand overload uses kAuto.
Status ApplyEwStep(const EwStep& step, Tile* value, const Tile* other,
                   KernelMode mode);
Status ApplyEwStep(const EwStep& step, Tile* value, const Tile* other);

}  // namespace cumulon

#endif  // CUMULON_EXEC_EW_STEP_H_
