#ifndef CUMULON_MATRIX_GEMM_PACKED_H_
#define CUMULON_MATRIX_GEMM_PACKED_H_

#include <cstdint>

#include "common/status.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"

/// Internal: the AVX2+FMA vector kernels behind tile_ops.cc's dispatch.
/// Callers must check SimdKernelAvailable() (kernel_config.h) first — these
/// execute AVX2/FMA instructions unconditionally. Exposed in a header so
/// kernel_test.cc can pin them against the scalar oracle directly and the
/// benches can time each path; production code goes through the dispatching
/// entry points in tile_ops.h.

namespace cumulon {
namespace kernel_internal {

/// True when this binary contains the vector kernels at all (x86-64 GCC or
/// Clang build). When false, SimdKernelAvailable() is also false and the
/// functions below abort if called.
bool PackedKernelCompiled();

/// C = alpha*op(A)*op(B) + beta*C via BLIS-style packing: B panels
/// repacked into 8-wide column strips (L1-resident), A blocks into 6-wide
/// row strips (L2-resident, alpha folded in at pack time), 6x8 FMA
/// register-tiled inner kernel, scalar tails for edge rows/cols. A
/// transposed operand is packed straight from its stored tile with
/// swapped strides; the packed panels, and so every result bit, are the
/// same as for a transposed copy. Reorder-safe: each C element accumulates
/// its k terms in ascending order starting from the beta-scaled value,
/// exactly like the scalar oracle — only FMA's fused rounding differs.
Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient);

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
