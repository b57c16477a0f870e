#ifndef CUMULON_MATRIX_TILE_OPS_H_
#define CUMULON_MATRIX_TILE_OPS_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "matrix/kernel_config.h"
#include "matrix/tile.h"

namespace cumulon {

/// Element-wise binary operators supported by the engine. Kept as an enum
/// (rather than arbitrary std::function) so plans are serializable, costable
/// and the kernels stay branch-free inner loops.
enum class BinaryOp { kAdd, kSub, kMul, kDiv, kMax, kMin };

/// Element-wise unary operators. kScale/kAddScalar/kPow take a scalar
/// parameter; the rest ignore it.
enum class UnaryOp {
  kScale,      // x * s
  kAddScalar,  // x + s
  kPow,        // x ^ s
  kExp,
  kLog,
  kAbs,
  kSqrt,
  kSigmoid,    // 1 / (1 + e^-x)
  kRecip,      // 1 / x
};

const char* BinaryOpName(BinaryOp op);
const char* UnaryOpName(UnaryOp op);

/// Applies one scalar binary op. Exposed for the reference implementation.
double ApplyBinary(BinaryOp op, double a, double b);
double ApplyUnary(UnaryOp op, double x, double scalar);

/// How Gemm reads an operand tile: as stored, or as its transpose. A
/// transposed operand is read in place with swapped strides — no
/// transposed copy of the tile is ever made.
enum class Orientation { kAsStored, kTransposed };

/// C = alpha * op(A) * op(B) + beta * C (dense GEMM), where op(X) is X or
/// X^T per the operand's orientation.
/// Shape requirements: op(A) is m x k, op(B) is k x n, C is m x n.
/// Dispatches at runtime (KernelMode::kAuto): the packed SIMD kernel at the
/// widest vector width the CPU supports (AVX-512F, else AVX2+FMA), the
/// scalar oracle on CPUs without AVX2+FMA. All accumulate each C element's
/// k terms in ascending order; the SIMD widths give the same bits and
/// differ from the oracle only by FMA's fused rounding. Orientation never changes the arithmetic, so
/// a transposed operand gives bits identical to TransposeTile + Gemm.
Status Gemm(const Tile& a, const Tile& b, double alpha, double beta, Tile* c,
            Orientation a_orient = Orientation::kAsStored,
            Orientation b_orient = Orientation::kAsStored);

/// Gemm through an explicit kernel mode (executor plumbing / tests /
/// benches). kSimd falls back to scalar when the CPU lacks AVX2+FMA.
Status GemmWithMode(KernelMode mode, const Tile& a, const Tile& b,
                    double alpha, double beta, Tile* c,
                    Orientation a_orient = Orientation::kAsStored,
                    Orientation b_orient = Orientation::kAsStored);

/// The register-blocked scalar kernel — the bit-exactness oracle the SIMD
/// path is tested against. Never vectorized, never FMA-contracted.
Status GemmScalar(const Tile& a, const Tile& b, double alpha, double beta,
                  Tile* c, Orientation a_orient = Orientation::kAsStored,
                  Orientation b_orient = Orientation::kAsStored);

/// Checks op(A) * op(B) -> C shapes; returns the (m, k, n) of the product
/// through the out-parameters. Shared by both Gemm kernels.
Status CheckGemmShapes(const Tile& a, Orientation a_orient, const Tile& b,
                       Orientation b_orient, const Tile& c, int64_t* m,
                       int64_t* k, int64_t* n);

/// out[i] = ApplyBinary(op, a[i], b[i]). Shapes must match.
/// Auto-dispatches to the AVX2 path when available; the vector EW kernels
/// use one IEEE op per element (no FMA) and are bit-identical to scalar.
Status EwBinary(BinaryOp op, const Tile& a, const Tile& b, Tile* out);
Status EwBinaryWithMode(KernelMode mode, BinaryOp op, const Tile& a,
                        const Tile& b, Tile* out);

/// Broadcast variant: `vec` is a 1 x cols row vector (row_vector = true,
/// applied to every row of `a`) or a rows x 1 column vector (applied to
/// every column). out(r,c) = op(a(r,c), vec(...)); `swapped` flips the
/// operand order. Used for centering/normalizing against aggregates.
Status EwBroadcast(BinaryOp op, const Tile& a, const Tile& vec,
                   bool row_vector, bool swapped, Tile* out);
Status EwBroadcastWithMode(KernelMode mode, BinaryOp op, const Tile& a,
                           const Tile& vec, bool row_vector, bool swapped,
                           Tile* out);

/// out[i] = ApplyUnary(op, a[i], scalar).
Status EwUnary(UnaryOp op, const Tile& a, double scalar, Tile* out);
Status EwUnaryWithMode(KernelMode mode, UnaryOp op, const Tile& a,
                       double scalar, Tile* out);

/// out = a^T.
Status TransposeTile(const Tile& a, Tile* out);

/// acc += x (element-wise). Shapes must match. Used to merge split-k
/// partial products.
Status AccumulateInto(const Tile& x, Tile* acc);
Status AccumulateIntoWithMode(KernelMode mode, const Tile& x, Tile* acc);

/// Sum of all elements, folded in strictly ascending index order.
double TileSum(const Tile& t);

/// acc[r] += sum_c t(r, c): folds a tile into a rows x 1 accumulator, each
/// row in ascending column order.
Status RowSumsInto(const Tile& t, Tile* acc);

/// acc[c] += sum_r t(r, c): folds a tile into a 1 x cols accumulator.
/// Vectorized over columns when AVX2 is available — each accumulator
/// element still receives rows in ascending order, so bit-identical.
/// (RowSumsInto / TileSum / FrobeniusNorm reduce *within* a row, so
/// speeding them up would reorder additions; they stay scalar.)
Status ColSumsInto(const Tile& t, Tile* acc);
Status ColSumsIntoWithMode(KernelMode mode, const Tile& t, Tile* acc);

/// Frobenius norm, its squares folded in ascending index order.
double FrobeniusNorm(const Tile& t);

// --- Chunk-level partial aggregates (out-of-core streaming) ---------------
//
// The streaming aggregate path reduces its input stripe in fixed-size
// panels: each panel folds into a zero-initialized partial, and finished
// partials are combined left-to-right into the stripe accumulator. Panel
// width is the constant below — never derived from the memory budget — so
// a resident run and a streamed run at any budget perform the identical
// sequence of floating-point additions and produce bit-identical results.

/// Input tiles one aggregate panel spans before its partial is folded into
/// the stripe accumulator.
inline constexpr int64_t kAggPanelTiles = 8;

/// partial[r] += sum_c t(r, c): the per-panel building block — the same
/// ascending fold as RowSumsInto, named for the call sites that build
/// panel partials rather than whole-stripe accumulators.
Status RowSumsPartialInto(const Tile& t, Tile* partial);

/// acc += partial element-wise, one IEEE add per element, no FMA — so the
/// left-to-right combine order fully determines the result bits.
Status CombineAggPartial(const Tile& partial, Tile* acc);
Status CombineAggPartialWithMode(KernelMode mode, const Tile& partial,
                                 Tile* acc);

/// max_i |a[i] - b[i]|; returns an error if shapes differ.
Result<double> MaxAbsDiff(const Tile& a, const Tile& b);

/// Fills with a constant.
void FillTile(Tile* t, double value);

/// Fills with iid N(0,1) / U(0,1) draws from `rng`, in row-major order:
/// FillGaussian gives the values t->size() NextGaussian() calls would.
void FillGaussian(Tile* t, Rng* rng);
void FillUniform(Tile* t, Rng* rng, double lo = 0.0, double hi = 1.0);

}  // namespace cumulon

#endif  // CUMULON_MATRIX_TILE_OPS_H_
