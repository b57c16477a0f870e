#ifndef CUMULON_LANG_LOWERING_H_
#define CUMULON_LANG_LOWERING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "exec/physical_plan.h"
#include "lang/expr.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {

/// Knobs of logical-to-physical lowering. The multiply split parameters
/// are per-job physical knobs the deployment optimizer tunes; `mm_params`
/// lets it inject its choice per multiply.
struct LoweringOptions {
  /// Tile dimension for intermediate/output matrices. Program inputs carry
  /// their own layouts, which must be tile-compatible with this.
  int64_t tile_dim = 512;

  /// Fuse trailing element-wise operations into the multiply that feeds
  /// them, and let a multiply read a transposed operand in place instead
  /// of materializing the transpose (Cumulon's fused-operator
  /// optimization; ablation A1 turns this off to mimic one-job-per-op
  /// systems).
  bool enable_fusion = true;

  /// Reuse already-materialized subexpressions (e.g. a product that two
  /// assignments both need) instead of recomputing them.
  bool enable_cse = true;

  /// Chooses MatMul split parameters given the layouts of the job's
  /// logical operands op(A) and op(B). Null = MatMulParams{0, 1, 0} for a
  /// multiply whose op(B) spans one tile column (its row groups sized for
  /// the cluster when the job is built) and MatMulParams{1, 1, 0} for any
  /// other.
  std::function<MatMulParams(const TileLayout&, const TileLayout&)>
      mm_params;

  /// Prefix for generated intermediate matrix names.
  std::string temp_prefix = "tmp";

  /// Determinism contract stamped into the plan (PhysicalPlan::determinism)
  /// and enforced at admission by the verifier: the seed every randomized
  /// choice derives from.
  uint64_t seed = 11;
};

/// Result of lowering: the executable plan plus, for every assignment
/// target, the tiled matrix it will be materialized as.
struct LoweredProgram {
  PhysicalPlan plan;
  std::map<std::string, TiledMatrix> outputs;
};

/// Lowers `program` to a physical plan. `inputs` binds every Expr::Input
/// name that is not produced by an earlier assignment to an existing tiled
/// matrix. Later assignments may reference earlier targets by name;
/// reassigning a name creates a new versioned matrix (iterative programs).
Result<LoweredProgram> Lower(const Program& program,
                             const std::map<std::string, TiledMatrix>& inputs,
                             const LoweringOptions& options);

}  // namespace cumulon

#endif  // CUMULON_LANG_LOWERING_H_
