#ifndef CUMULON_BASELINE_MR_MATMUL_H_
#define CUMULON_BASELINE_MR_MATMUL_H_

#include <string>

#include "cluster/engine.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {

/// The two classical MapReduce matrix-multiply strategies that
/// SystemML-style Hadoop systems choose between. They are the paper's
/// "existing Hadoop-based systems" comparison point (experiment E1):
///
///  - RMM (replication-based): one MR job. Mappers replicate every A tile
///    to all GJ result columns and every B tile to all GI result rows;
///    reducer (i,j) folds the k dimension. Shuffle = |A|*GJ + |B|*GI.
///  - CPMM (cross-product): two MR jobs. Job 1 groups A's k-th column
///    block with B's k-th row block at reducer k, which emits a *full*
///    partial product C^(k); job 2 sums the GK partials. Shuffle is small
///    but the intermediate traffic is GK * |C|.
///
/// Cumulon's map-only multiply reads tiles straight from the DFS with
/// locality, so it pays neither of these data-movement penalties.
enum class MrStrategy { kRmm, kCpmm };

const char* MrStrategyName(MrStrategy s);

struct MrOptions {
  /// Per-MR-job submission overhead (Hadoop job startup).
  double job_startup_seconds = 3.0;

  /// Attach real work closures (reducers actually compute the product).
  bool real_mode = true;
};

/// Outcome of one baseline multiply.
struct MrRunStats {
  double total_seconds = 0.0;
  int num_jobs = 0;
  int num_tasks = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t shuffle_bytes = 0;
};

/// Runs out = a * b with the given MR strategy on `engine`. In real mode
/// the result tiles are actually computed and written to `store`
/// (numerically identical to Cumulon's multiply); in sim mode only costs
/// flow. CPMM writes its partial products under "<out>#cpmm_<k>" and
/// deletes them afterwards.
Result<MrRunStats> RunMrMultiply(MrStrategy strategy, const TiledMatrix& a,
                                 const TiledMatrix& b, const TiledMatrix& out,
                                 TileStore* store, Engine* engine,
                                 const TileOpCostModel& cost,
                                 const MrOptions& options);

}  // namespace cumulon

#endif  // CUMULON_BASELINE_MR_MATMUL_H_
