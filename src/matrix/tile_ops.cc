#include "matrix/tile_ops.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "matrix/gemm_packed.h"
#include "matrix/kernel_config.h"

namespace cumulon {

namespace {
/// True when `mode` resolves to the packed/vector path on this machine
/// (CPUID + CUMULON_KERNEL override, see kernel_config.h).
bool UseSimd(KernelMode mode) {
  return ResolveKernelMode(mode) == KernelMode::kSimd;
}
}  // namespace

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "add";
    case BinaryOp::kSub:
      return "sub";
    case BinaryOp::kMul:
      return "mul";
    case BinaryOp::kDiv:
      return "div";
    case BinaryOp::kMax:
      return "max";
    case BinaryOp::kMin:
      return "min";
  }
  return "?";
}

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kScale:
      return "scale";
    case UnaryOp::kAddScalar:
      return "add_scalar";
    case UnaryOp::kPow:
      return "pow";
    case UnaryOp::kExp:
      return "exp";
    case UnaryOp::kLog:
      return "log";
    case UnaryOp::kAbs:
      return "abs";
    case UnaryOp::kSqrt:
      return "sqrt";
    case UnaryOp::kSigmoid:
      return "sigmoid";
    case UnaryOp::kRecip:
      return "recip";
  }
  return "?";
}

double ApplyBinary(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      return a / b;
    case BinaryOp::kMax:
      return std::max(a, b);
    case BinaryOp::kMin:
      return std::min(a, b);
  }
  return 0.0;
}

double ApplyUnary(UnaryOp op, double x, double scalar) {
  switch (op) {
    case UnaryOp::kScale:
      return x * scalar;
    case UnaryOp::kAddScalar:
      return x + scalar;
    case UnaryOp::kPow:
      return std::pow(x, scalar);
    case UnaryOp::kExp:
      return std::exp(x);
    case UnaryOp::kLog:
      return std::log(x);
    case UnaryOp::kAbs:
      return std::abs(x);
    case UnaryOp::kSqrt:
      return std::sqrt(x);
    case UnaryOp::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case UnaryOp::kRecip:
      return 1.0 / x;
  }
  return 0.0;
}

Status Gemm(const Tile& a, const Tile& b, double alpha, double beta, Tile* c,
            Orientation a_orient, Orientation b_orient) {
  return GemmWithMode(KernelMode::kAuto, a, b, alpha, beta, c, a_orient,
                      b_orient);
}

Status GemmWithMode(KernelMode mode, const Tile& a, const Tile& b,
                    double alpha, double beta, Tile* c, Orientation a_orient,
                    Orientation b_orient) {
  if (UseSimd(mode)) {
    return DispatchedSimdWidth() == SimdWidth::kAvx512
               ? kernel_internal::GemmPackedAvx512(a, b, alpha, beta, c,
                                                   a_orient, b_orient)
               : kernel_internal::GemmPackedAvx2(a, b, alpha, beta, c,
                                                 a_orient, b_orient);
  }
  return GemmScalar(a, b, alpha, beta, c, a_orient, b_orient);
}

Status CheckGemmShapes(const Tile& a, Orientation a_orient, const Tile& b,
                       Orientation b_orient, const Tile& c, int64_t* m,
                       int64_t* k, int64_t* n) {
  const bool ta = a_orient == Orientation::kTransposed;
  const bool tb = b_orient == Orientation::kTransposed;
  *m = ta ? a.cols() : a.rows();
  *k = ta ? a.rows() : a.cols();
  *n = tb ? b.rows() : b.cols();
  const int64_t kb = tb ? b.cols() : b.rows();
  if (*k != kb || *m != c.rows() || *n != c.cols()) {
    return Status::InvalidArgument(
        StrCat("gemm shape mismatch: A", ta ? "^T " : " ", *m, "x", *k,
               ", B", tb ? "^T " : " ", kb, "x", *n, ", C ", c.rows(), "x",
               c.cols()));
  }
  return Status::OK();
}

namespace {

/// The oracle's loop nest over op(A) (m x k) and op(B) (k x n). The
/// orientations are template parameters, so each instantiation indexes
/// its stored tiles with constant strides: op(A)(i, kk) is ad[i*k + kk]
/// as stored and ad[kk*m + i] transposed, likewise for B. The arithmetic
/// is identical in all four, which is what makes a transposed operand
/// bit-identical to a transposed copy.
template <bool kTransA, bool kTransB>
void GemmScalarLoops(const double* ad, const double* bd, double alpha,
                     int64_t m, int64_t k, int64_t n, double* cd) {
  // Strides of op(A) along i and kk, and of op(B) along kk and j.
  constexpr bool ta = kTransA, tb = kTransB;
  const int64_t a_is = ta ? 1 : k, a_ks = ta ? m : 1;
  const int64_t b_ks = tb ? 1 : n, b_js = tb ? k : 1;
  // i-k-j order with cache blocking, plus a 2x4 register block inside each
  // cache block: two C rows and four C columns live in registers across the
  // whole kk range, so each loaded B value feeds two FMAs and each A value
  // four, instead of one. Every C element still receives its k terms in
  // ascending order as separate adds (the accumulator starts from the
  // element's current value), so results are bit-identical to the plain
  // i-k-j loop — for any block size, which is why cache_block is freely
  // tunable (kernel_config.h, derived from L2 at startup).
  const int64_t kBlock = GetKernelConfig().cache_block;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k0 + kBlock, k);
      for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
        const int64_t j1 = std::min(j0 + kBlock, n);
        int64_t i = i0;
        for (; i + 1 < i1; i += 2) {
          double* __restrict c0 = cd + i * n;
          double* __restrict c1 = cd + (i + 1) * n;
          const double* __restrict a0 = ad + i * a_is;
          const double* __restrict a1 = ad + (i + 1) * a_is;
          int64_t j = j0;
          for (; j + 3 < j1; j += 4) {
            double s00 = c0[j], s01 = c0[j + 1];
            double s02 = c0[j + 2], s03 = c0[j + 3];
            double s10 = c1[j], s11 = c1[j + 1];
            double s12 = c1[j + 2], s13 = c1[j + 3];
            for (int64_t kk = k0; kk < k1; ++kk) {
              const double av0 = alpha * a0[kk * a_ks];
              const double av1 = alpha * a1[kk * a_ks];
              const double* __restrict brow = bd + kk * b_ks;
              s00 += av0 * brow[j * b_js];
              s01 += av0 * brow[(j + 1) * b_js];
              s02 += av0 * brow[(j + 2) * b_js];
              s03 += av0 * brow[(j + 3) * b_js];
              s10 += av1 * brow[j * b_js];
              s11 += av1 * brow[(j + 1) * b_js];
              s12 += av1 * brow[(j + 2) * b_js];
              s13 += av1 * brow[(j + 3) * b_js];
            }
            c0[j] = s00;
            c0[j + 1] = s01;
            c0[j + 2] = s02;
            c0[j + 3] = s03;
            c1[j] = s10;
            c1[j + 1] = s11;
            c1[j + 2] = s12;
            c1[j + 3] = s13;
          }
          for (; j < j1; ++j) {
            double s0 = c0[j], s1 = c1[j];
            for (int64_t kk = k0; kk < k1; ++kk) {
              const double av0 = alpha * a0[kk * a_ks];
              const double av1 = alpha * a1[kk * a_ks];
              const double* __restrict brow = bd + kk * b_ks;
              s0 += av0 * brow[j * b_js];
              s1 += av1 * brow[j * b_js];
            }
            c0[j] = s0;
            c1[j] = s1;
          }
        }
        for (; i < i1; ++i) {
          double* __restrict crow = cd + i * n;
          const double* __restrict arow = ad + i * a_is;
          int64_t j = j0;
          for (; j + 3 < j1; j += 4) {
            double s0 = crow[j], s1 = crow[j + 1];
            double s2 = crow[j + 2], s3 = crow[j + 3];
            for (int64_t kk = k0; kk < k1; ++kk) {
              const double av = alpha * arow[kk * a_ks];
              const double* __restrict brow = bd + kk * b_ks;
              s0 += av * brow[j * b_js];
              s1 += av * brow[(j + 1) * b_js];
              s2 += av * brow[(j + 2) * b_js];
              s3 += av * brow[(j + 3) * b_js];
            }
            crow[j] = s0;
            crow[j + 1] = s1;
            crow[j + 2] = s2;
            crow[j + 3] = s3;
          }
          for (; j < j1; ++j) {
            double s = crow[j];
            for (int64_t kk = k0; kk < k1; ++kk) {
              const double av = alpha * arow[kk * a_ks];
              s += av * bd[kk * b_ks + j * b_js];
            }
            crow[j] = s;
          }
        }
      }
    }
  }
}

}  // namespace

Status GemmScalar(const Tile& a, const Tile& b, double alpha, double beta,
                  Tile* c, Orientation a_orient, Orientation b_orient) {
  int64_t m = 0, k = 0, n = 0;
  CUMULON_RETURN_IF_ERROR(
      CheckGemmShapes(a, a_orient, b, b_orient, *c, &m, &k, &n));
  double* cd = c->mutable_data();
  if (beta == 0.0) {
    // Overwrite semantics: never read stale C memory (also avoids NaN/Inf
    // leakage from uninitialized accumulators, since 0 * NaN != 0).
    std::fill(cd, cd + m * n, 0.0);
  } else if (beta != 1.0) {
    for (int64_t i = 0; i < m * n; ++i) cd[i] *= beta;
  }
  const bool ta = a_orient == Orientation::kTransposed;
  const bool tb = b_orient == Orientation::kTransposed;
  if (ta && tb) {
    GemmScalarLoops<true, true>(a.data(), b.data(), alpha, m, k, n, cd);
  } else if (ta) {
    GemmScalarLoops<true, false>(a.data(), b.data(), alpha, m, k, n, cd);
  } else if (tb) {
    GemmScalarLoops<false, true>(a.data(), b.data(), alpha, m, k, n, cd);
  } else {
    GemmScalarLoops<false, false>(a.data(), b.data(), alpha, m, k, n, cd);
  }
  return Status::OK();
}

Status EwBinary(BinaryOp op, const Tile& a, const Tile& b, Tile* out) {
  return EwBinaryWithMode(KernelMode::kAuto, op, a, b, out);
}

Status EwBinaryWithMode(KernelMode mode, BinaryOp op, const Tile& a,
                        const Tile& b, Tile* out) {
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      a.rows() != out->rows() || a.cols() != out->cols()) {
    return Status::InvalidArgument("element-wise shape mismatch");
  }
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->mutable_data();
  const int64_t n = a.size();
  if (UseSimd(mode)) {
    kernel_internal::EwBinaryAvx2(op, ad, bd, od, n);
    return Status::OK();
  }
  switch (op) {
    case BinaryOp::kAdd:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] + bd[i];
      break;
    case BinaryOp::kSub:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] - bd[i];
      break;
    case BinaryOp::kMul:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] * bd[i];
      break;
    case BinaryOp::kDiv:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] / bd[i];
      break;
    case BinaryOp::kMax:
      for (int64_t i = 0; i < n; ++i) od[i] = std::max(ad[i], bd[i]);
      break;
    case BinaryOp::kMin:
      for (int64_t i = 0; i < n; ++i) od[i] = std::min(ad[i], bd[i]);
      break;
  }
  return Status::OK();
}

Status EwBroadcast(BinaryOp op, const Tile& a, const Tile& vec,
                   bool row_vector, bool swapped, Tile* out) {
  return EwBroadcastWithMode(KernelMode::kAuto, op, a, vec, row_vector,
                             swapped, out);
}

Status EwBroadcastWithMode(KernelMode mode, BinaryOp op, const Tile& a,
                           const Tile& vec, bool row_vector, bool swapped,
                           Tile* out) {
  if (a.rows() != out->rows() || a.cols() != out->cols()) {
    return Status::InvalidArgument("broadcast output shape mismatch");
  }
  if (row_vector) {
    if (vec.rows() != 1 || vec.cols() != a.cols()) {
      return Status::InvalidArgument("row-vector broadcast shape mismatch");
    }
  } else {
    if (vec.cols() != 1 || vec.rows() != a.rows()) {
      return Status::InvalidArgument("col-vector broadcast shape mismatch");
    }
  }
  if (UseSimd(mode)) {
    // Row case: each output row is `a_row op vec` (or swapped) — the plain
    // vector-vector kernel per row. Column case: vec(r) is a loop-invariant
    // scalar per row — the vector-scalar kernel. Both bit-identical.
    const double* ad = a.data();
    const double* vd = vec.data();
    double* od = out->mutable_data();
    const int64_t rows = a.rows(), cols = a.cols();
    for (int64_t r = 0; r < rows; ++r) {
      const double* arow = ad + r * cols;
      double* orow = od + r * cols;
      if (row_vector) {
        if (swapped) {
          kernel_internal::EwBinaryAvx2(op, vd, arow, orow, cols);
        } else {
          kernel_internal::EwBinaryAvx2(op, arow, vd, orow, cols);
        }
      } else {
        kernel_internal::EwScalarAvx2(op, arow, vd[r], swapped, orow, cols);
      }
    }
    return Status::OK();
  }
  // Orientation and operand order are loop invariants; pick one of the four
  // tight loops up front instead of re-deciding per element, and let the
  // functor inline into each (the per-element ApplyBinary switch disappears).
  auto broadcast = [&](auto fn) {
    const double* ad = a.data();
    const double* vd = vec.data();
    double* od = out->mutable_data();
    const int64_t rows = a.rows(), cols = a.cols();
    if (row_vector) {
      if (swapped) {
        for (int64_t r = 0; r < rows; ++r) {
          const double* arow = ad + r * cols;
          double* orow = od + r * cols;
          for (int64_t c = 0; c < cols; ++c) orow[c] = fn(vd[c], arow[c]);
        }
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          const double* arow = ad + r * cols;
          double* orow = od + r * cols;
          for (int64_t c = 0; c < cols; ++c) orow[c] = fn(arow[c], vd[c]);
        }
      }
    } else if (swapped) {
      for (int64_t r = 0; r < rows; ++r) {
        const double v = vd[r];
        const double* arow = ad + r * cols;
        double* orow = od + r * cols;
        for (int64_t c = 0; c < cols; ++c) orow[c] = fn(v, arow[c]);
      }
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        const double v = vd[r];
        const double* arow = ad + r * cols;
        double* orow = od + r * cols;
        for (int64_t c = 0; c < cols; ++c) orow[c] = fn(arow[c], v);
      }
    }
  };
  switch (op) {
    case BinaryOp::kAdd:
      broadcast([](double x, double y) { return x + y; });
      break;
    case BinaryOp::kSub:
      broadcast([](double x, double y) { return x - y; });
      break;
    case BinaryOp::kMul:
      broadcast([](double x, double y) { return x * y; });
      break;
    case BinaryOp::kDiv:
      broadcast([](double x, double y) { return x / y; });
      break;
    case BinaryOp::kMax:
      broadcast([](double x, double y) { return std::max(x, y); });
      break;
    case BinaryOp::kMin:
      broadcast([](double x, double y) { return std::min(x, y); });
      break;
  }
  return Status::OK();
}

Status EwUnary(UnaryOp op, const Tile& a, double scalar, Tile* out) {
  return EwUnaryWithMode(KernelMode::kAuto, op, a, scalar, out);
}

Status EwUnaryWithMode(KernelMode mode, UnaryOp op, const Tile& a,
                       double scalar, Tile* out) {
  if (a.rows() != out->rows() || a.cols() != out->cols()) {
    return Status::InvalidArgument("element-wise shape mismatch");
  }
  const double* ad = a.data();
  double* od = out->mutable_data();
  const int64_t n = a.size();
  // kScale/kAddScalar dominate real workloads: vectorize them (x*s and x+s
  // are single IEEE ops — bit-identical); the transcendental ops route
  // through ApplyUnary regardless of mode.
  if (UseSimd(mode) &&
      (op == UnaryOp::kScale || op == UnaryOp::kAddScalar)) {
    kernel_internal::EwScalarAvx2(
        op == UnaryOp::kScale ? BinaryOp::kMul : BinaryOp::kAdd, ad, scalar,
        /*swapped=*/false, od, n);
    return Status::OK();
  }
  switch (op) {
    case UnaryOp::kScale:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] * scalar;
      break;
    case UnaryOp::kAddScalar:
      for (int64_t i = 0; i < n; ++i) od[i] = ad[i] + scalar;
      break;
    default:
      for (int64_t i = 0; i < n; ++i) od[i] = ApplyUnary(op, ad[i], scalar);
      break;
  }
  return Status::OK();
}

Status TransposeTile(const Tile& a, Tile* out) {
  if (a.rows() != out->cols() || a.cols() != out->rows()) {
    return Status::InvalidArgument("transpose shape mismatch");
  }
  const int64_t m = a.rows(), n = a.cols();
  const double* ad = a.data();
  double* od = out->mutable_data();
  // Blocked to keep both access patterns cache-friendly.
  const int64_t kBlock = GetKernelConfig().cache_block;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
      const int64_t j1 = std::min(j0 + kBlock, n);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) {
          od[j * m + i] = ad[i * n + j];
        }
      }
    }
  }
  return Status::OK();
}

Status AccumulateInto(const Tile& x, Tile* acc) {
  return AccumulateIntoWithMode(KernelMode::kAuto, x, acc);
}

Status AccumulateIntoWithMode(KernelMode mode, const Tile& x, Tile* acc) {
  if (x.rows() != acc->rows() || x.cols() != acc->cols()) {
    return Status::InvalidArgument("accumulate shape mismatch");
  }
  const double* xd = x.data();
  double* ad = acc->mutable_data();
  const int64_t n = x.size();
  if (UseSimd(mode)) {
    kernel_internal::AccumulateAvx2(xd, ad, n);
    return Status::OK();
  }
  for (int64_t i = 0; i < n; ++i) ad[i] += xd[i];
  return Status::OK();
}

Status RowSumsInto(const Tile& t, Tile* acc) {
  if (acc->rows() != t.rows() || acc->cols() != 1) {
    return Status::InvalidArgument("RowSumsInto needs a rows x 1 accumulator");
  }
  const double* d = t.data();
  double* a = acc->mutable_data();
  for (int64_t r = 0; r < t.rows(); ++r) {
    const double* row = d + r * t.cols();
    double s = 0.0;
    for (int64_t c = 0; c < t.cols(); ++c) s += row[c];
    a[r] += s;
  }
  return Status::OK();
}

Status RowSumsPartialInto(const Tile& t, Tile* partial) {
  return RowSumsInto(t, partial);
}

Status CombineAggPartial(const Tile& partial, Tile* acc) {
  return CombineAggPartialWithMode(KernelMode::kAuto, partial, acc);
}

Status CombineAggPartialWithMode(KernelMode mode, const Tile& partial,
                                 Tile* acc) {
  // Element-wise accumulate is already one ordered IEEE add per element on
  // both kernel paths, which is exactly the combine contract.
  return AccumulateIntoWithMode(mode, partial, acc);
}

Status ColSumsInto(const Tile& t, Tile* acc) {
  return ColSumsIntoWithMode(KernelMode::kAuto, t, acc);
}

Status ColSumsIntoWithMode(KernelMode mode, const Tile& t, Tile* acc) {
  if (acc->rows() != 1 || acc->cols() != t.cols()) {
    return Status::InvalidArgument("ColSumsInto needs a 1 x cols accumulator");
  }
  const double* d = t.data();
  double* a = acc->mutable_data();
  if (UseSimd(mode)) {
    kernel_internal::ColSumsAvx2(d, t.rows(), t.cols(), a);
    return Status::OK();
  }
  for (int64_t r = 0; r < t.rows(); ++r) {
    const double* row = d + r * t.cols();
    for (int64_t c = 0; c < t.cols(); ++c) a[c] += row[c];
  }
  return Status::OK();
}

double TileSum(const Tile& t) {
  const double* d = t.data();
  double s = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) s += d[i];
  return s;
}

double FrobeniusNorm(const Tile& t) {
  const double* d = t.data();
  double s = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) s += d[i] * d[i];
  return std::sqrt(s);
}

Result<double> MaxAbsDiff(const Tile& a, const Tile& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument("MaxAbsDiff shape mismatch");
  }
  double m = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(ad[i] - bd[i]));
  }
  return m;
}

void FillTile(Tile* t, double value) {
  double* d = t->mutable_data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = value;
}

void FillGaussian(Tile* t, Rng* rng) {
  double* d = t->mutable_data();
  const int64_t first = rng->DrawGaussianUniforms(d, t->size());
  Rng::BoxMullerPairs(d + first, t->size() - first);
}

void FillUniform(Tile* t, Rng* rng, double lo, double hi) {
  double* d = t->mutable_data();
  for (int64_t i = 0; i < t->size(); ++i) d[i] = rng->NextDouble(lo, hi);
}

}  // namespace cumulon
