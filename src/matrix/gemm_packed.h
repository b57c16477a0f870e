#ifndef CUMULON_MATRIX_GEMM_PACKED_H_
#define CUMULON_MATRIX_GEMM_PACKED_H_

#include <cstdint>

#include "common/status.h"
#include "matrix/gemm_micro_kernel.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"

/// Internal: the vector kernels behind tile_ops.cc's dispatch. Callers must
/// check SimdKernelAvailable() / DispatchedSimdWidth() (kernel_config.h)
/// first — these execute AVX2+FMA or AVX-512F instructions unconditionally.
/// Exposed in a header so kernel_test.cc can pin each Gemm width against the
/// scalar oracle and against the other directly, and the benches can time
/// each path; production code goes through the dispatching entry points in
/// tile_ops.h.

namespace cumulon {
namespace kernel_internal {

/// A binary without the vector kernels (not an x86-64 GCC or Clang build)
/// reports SimdKernelAvailable() false, and the functions below abort if
/// called there.

/// C = alpha*op(A)*op(B) + beta*C at one vector width (gemm_micro_kernel.h):
/// C is beta-scaled once, then B is packed kc x nc at a time into
/// zero-padded panels of the width's register-tile columns, and op(A) is
/// read in place from its stored tile — MR row streams as stored, MR
/// contiguous doubles per k when transposed — one broadcast per row per k
/// with alpha folded in (alpha * a). The register tile is 6x8 (AVX2) or
/// 8x16 (AVX-512); edge rows run the same micro-kernel instantiated for
/// fewer rows and edge columns use masked C loads and stores. Every C
/// element is its beta-scaled value followed by its k terms as ascending
/// FMAs, so the two widths, any blocking, and a transposed operand versus a
/// transposed copy all give the same bits; only FMA's fused rounding
/// differs from the scalar oracle.
Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient);
Status GemmPackedAvx512(const Tile& a, const Tile& b, double alpha,
                        double beta, Tile* c, Orientation a_orient,
                        Orientation b_orient);

/// o[i] = op(a[i], b[i]). Bit-identical to the scalar loop: one IEEE op per
/// element, no FMA; max/min are compare+blend replicating std::max/min
/// (including NaN behavior).
void EwBinaryAvx2(BinaryOp op, const double* a, const double* b, double* o,
                  int64_t n);

/// o[i] = op(a[i], s) — or op(s, a[i]) when swapped. Bit-identical.
void EwScalarAvx2(BinaryOp op, const double* a, double s, bool swapped,
                  double* o, int64_t n);

/// acc[i] += x[i]. Bit-identical.
void AccumulateAvx2(const double* x, double* acc, int64_t n);

/// acc[c] += t(r, c) for every row r; rows are folded in ascending order so
/// each acc element sees the same addition sequence as the scalar loop.
void ColSumsAvx2(const double* t, int64_t rows, int64_t cols, double* acc);

}  // namespace kernel_internal
}  // namespace cumulon

#endif  // CUMULON_MATRIX_GEMM_PACKED_H_
