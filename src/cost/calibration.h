#ifndef CUMULON_COST_CALIBRATION_H_
#define CUMULON_COST_CALIBRATION_H_

#include <string>

#include "cloud/machine.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "matrix/kernel_config.h"

namespace cumulon {

/// Measured kernel throughputs of the host this process runs on.
struct CalibrationResult {
  double gemm_gflops = 0.0;       // achieved dense-GEMM GFLOP/s
  double ew_gelems = 0.0;         // element-wise Gelem/s
  double transpose_gelems = 0.0;  // transpose Gelem/s

  /// Gemm kernel the probes actually ran after dispatch resolution
  /// ("avx512", "avx2" or "scalar", GemmKernelName), so a stored
  /// calibration is only reused for executions running the same kernel:
  /// the packed SIMD Gemm is several times faster than the oracle and its
  /// AVX-512 width about twice its AVX2 one, and a flops term calibrated on
  /// one badly mispredicts another.
  std::string kernel = "scalar";

  /// Cost model with ratios normalized to the reference machine.
  TileOpCostModel ToCostModel() const;

  /// A MachineProfile describing this host (one core per worker thread,
  /// cpu_gflops = measured), so SimEngine predictions can be compared
  /// against RealEngine wall clock (experiment E4). Disk/net bandwidths are
  /// set very high: the real engine's in-memory tile store has no IO cost.
  MachineProfile ToHostProfile(int cores) const;
};

struct CalibrationOptions {
  int64_t tile_dim = 256;  // tile size used by the probes
  int repetitions = 3;     // best-of-n to reduce scheduling noise

  /// Kernel implementation to probe. Calibrate with the same mode the
  /// executor will run (ExecutorOptions::kernel_mode) so the cost model's
  /// flops term reflects the dispatched kernel, not the oracle.
  KernelMode kernel_mode = KernelMode::kAuto;
};

/// Runs the paper's "benchmarking" step: times the tile kernels on this
/// host and returns their achieved throughputs.
Result<CalibrationResult> Calibrate(const CalibrationOptions& options);

}  // namespace cumulon

#endif  // CUMULON_COST_CALIBRATION_H_
