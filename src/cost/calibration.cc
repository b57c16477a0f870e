#include "cost/calibration.h"

#include <algorithm>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"

namespace cumulon {

TileOpCostModel CalibrationResult::ToCostModel() const {
  TileOpCostModel model;
  if (gemm_gflops > 0.0) {
    // The reference machine does 1 GFLOP/s of GEMM; scale the measured
    // element-wise/transpose rates by the same factor so their *ratios* to
    // GEMM match this host.
    model.ew_gelems_per_sec = ew_gelems / gemm_gflops;
    model.transpose_gelems_per_sec = transpose_gelems / gemm_gflops;
  }
  return model;
}

MachineProfile CalibrationResult::ToHostProfile(int cores) const {
  MachineProfile profile;
  profile.name = "host";
  profile.cores = std::max(cores, 1);
  profile.cpu_gflops = gemm_gflops;
  // The in-memory store used during real execution has no IO cost; make
  // the modeled IO terms negligible rather than zero to avoid div-by-zero.
  profile.disk_mbps = 1e9;
  profile.net_mbps = 1e9;
  profile.price_per_hour = 0.0;
  return profile;
}

Result<CalibrationResult> Calibrate(const CalibrationOptions& options) {
  if (options.tile_dim < 16 || options.repetitions < 1) {
    return Status::InvalidArgument("calibration needs tile_dim>=16, reps>=1");
  }
  const int64_t d = options.tile_dim;
  Rng rng(123);
  Tile a(d, d), b(d, d), c(d, d);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);

  CalibrationResult result;
  // Record what actually runs after dispatch, so callers persisting the
  // result can tell the calibrations of the two SIMD widths and the scalar
  // oracle apart.
  const KernelMode mode = options.kernel_mode;
  result.kernel = GemmKernelName(mode);

  // GEMM probe: best-of-n 2d^3-flop multiplies.
  double best = 1e30;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    Stopwatch sw;
    CUMULON_RETURN_IF_ERROR(GemmWithMode(mode, a, b, 1.0, 0.0, &c));
    best = std::min(best, sw.ElapsedSeconds());
  }
  result.gemm_gflops = 2.0 * d * d * d / best / 1e9;

  // Element-wise probe: repeat to get above timer resolution.
  const int ew_iters = 32;
  best = 1e30;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    Stopwatch sw;
    for (int i = 0; i < ew_iters; ++i) {
      CUMULON_RETURN_IF_ERROR(
          EwBinaryWithMode(mode, BinaryOp::kAdd, a, b, &c));
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  result.ew_gelems = static_cast<double>(d) * d * ew_iters / best / 1e9;

  // Transpose probe.
  best = 1e30;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    Stopwatch sw;
    for (int i = 0; i < ew_iters; ++i) {
      CUMULON_RETURN_IF_ERROR(TransposeTile(a, &c));
    }
    best = std::min(best, sw.ElapsedSeconds());
  }
  result.transpose_gelems =
      static_cast<double>(d) * d * ew_iters / best / 1e9;

  return result;
}

}  // namespace cumulon
