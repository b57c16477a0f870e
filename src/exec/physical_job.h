#ifndef CUMULON_EXEC_PHYSICAL_JOB_H_
#define CUMULON_EXEC_PHYSICAL_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/task.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "exec/ew_step.h"
#include "matrix/kernel_config.h"
#include "matrix/tile_ops.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {

class MemoryBudgetGroup;  // exec/memory_budget.h

/// Inputs a physical job needs to turn itself into schedulable tasks.
struct BuildContext {
  TileStore* store = nullptr;            // closures + locality
  const TileOpCostModel* cost = nullptr; // cpu_seconds_ref per task
  bool attach_work = true;               // false for simulation-only plans

  /// Kernel implementation the task bodies pass to the *WithMode tile ops
  /// (matrix/kernel_config.h): kAuto = packed SIMD when the CPU has it,
  /// kScalar = the bit-exact oracle. The executor fills it from
  /// ExecutorOptions::kernel_mode.
  KernelMode kernel_mode = KernelMode::kAuto;

  /// Node-local tile-cache budget per machine (0 = caching off) and the
  /// number of machines the job's tasks spread over. When set, jobs whose
  /// splits re-read input tiles declare the expected cache-served bytes in
  /// TaskCost::bytes_read_cached — each reused tile is fetched roughly
  /// once per node instead of once per split. The executor fills both from
  /// the engine, so the cost model and the engine's cache agree on one
  /// budget.
  int64_t node_cache_bytes = 0;
  int cache_nodes = 0;

  /// Task slots of the whole cluster that will run the job (machines x
  /// slots per machine). A multiply built with bi = 0 sizes its row groups
  /// from it (MatMulJob::RowPanelsPerTask). The executor fills it from its
  /// engine in both modes, so a prediction builds the tasks a real run
  /// would; 0 = unknown (tuner probes, direct builds), which gives one row
  /// panel per task.
  int total_slots = 0;

  /// Per-task in-flight prefetch budget in bytes for the double-buffered
  /// task bodies (TaskTileReader): each task hints its reads in compute
  /// order and keeps up to this many bytes downloading ahead of the
  /// computation. <= 0 disables the pipeline (plain blocking Gets).
  /// Only meaningful with attach_work; the executor fills it from
  /// ExecutorOptions::prefetch_budget_bytes.
  int64_t prefetch_budget_bytes = 0;

  /// Out-of-core streaming (exec/memory_budget.h). When non-null, every
  /// task reader charges its held bytes — in-flight prefetches, pinned
  /// operand panels, scratch reservations — to its node's ledger, pinning
  /// at most `task_pin_bytes` at once and spilling least-recently-used
  /// panels under pressure (they are re-fetched from the DFS on the next
  /// touch). Compute order is unchanged, so budgeted runs stay
  /// bit-identical to resident ones. Borrowed from the executor's per-run
  /// group; null = classic resident behavior. The executor derives
  /// task_pin_bytes as the node budget minus the tile-cache reservation,
  /// divided by the machine's task slots.
  MemoryBudgetGroup* memory_budget = nullptr;
  int64_t task_pin_bytes = 0;
};

/// One output tile a task will produce; used by the executor in simulation
/// mode to register metadata (placement) for downstream jobs.
struct TileOutput {
  std::string matrix;
  TileId id;
  int64_t bytes = 0;
};

/// A job lowered to concrete tasks.
struct BuiltJob {
  JobSpec spec;
  std::vector<std::vector<TileOutput>> task_outputs;  // parallel to tasks
};

/// Base class of Cumulon's physical operators. Each job is map-only: a set
/// of independent tasks that read whatever tiles they need from the DFS
/// and write result tiles back — no shuffle barrier (this is the paper's
/// "flexible execution model" that avoids MapReduce's limitations).
class PhysicalJob {
 public:
  virtual ~PhysicalJob() = default;

  virtual const std::string& name() const = 0;

  /// Validates shapes/parameters and produces the task list.
  virtual Result<BuiltJob> Build(const BuildContext& ctx) const = 0;

  /// Matrices this job reads / writes, for DAG scheduling: two jobs are
  /// independent iff neither reads or writes a matrix the other writes.
  virtual std::vector<std::string> InputMatrices() const = 0;
  virtual std::vector<std::string> OutputMatrices() const = 0;

  virtual std::string DebugString() const = 0;
};

/// Parameters of a multiply job: how many result-tile rows/columns one task
/// covers (bi x bj) and how many k-tiles it folds (bk). These are exactly
/// the per-operator knobs Cumulon's optimizer tunes: larger blocks amortize
/// input reads (each A tile is read by fewer tasks) but reduce parallelism.
/// bk <= 0 means "fold the entire k dimension in one task" (no split-k).
/// bi = 0 means "sized by the build": MatMulJob::Build groups row panels
/// for the cluster's slots (MatMulJob::RowPanelsPerTask). Lowering emits
/// it for a multiply whose op(B) spans one tile column.
struct MatMulParams {
  int64_t bi = 1;
  int64_t bj = 1;
  int64_t bk = 0;

  std::string ToString() const;
};

/// One multiply operand: a stored matrix read either as stored or
/// transposed. A transposed operand is never materialized: a task that
/// needs tile (i,k) of op(X) = X^T reads stored tile (k,i), and Gemm packs
/// it with swapped strides.
struct MatMulOperand {
  /// Implicit on purpose: a plain TiledMatrix is an as-stored operand.
  MatMulOperand(TiledMatrix m, Orientation orient = Orientation::kAsStored)
      : stored(std::move(m)), orientation(orient) {}

  bool transposed() const {
    return orientation == Orientation::kTransposed;
  }

  /// Layout of op(stored): what the multiply's shape checks, split
  /// arithmetic and declared costs work in.
  TileLayout layout() const {
    return transposed() ? stored.layout.Transposed() : stored.layout;
  }

  /// The stored tile that holds tile (row, col) of op(stored).
  TileId StoredId(int64_t row, int64_t col) const {
    return transposed() ? TileId{col, row} : TileId{row, col};
  }

  /// "X", or "X^T" when transposed.
  std::string ToString() const;

  TiledMatrix stored;
  Orientation orientation;
};

/// C = op(A) * op(B) over tile grids, with an optional fused element-wise
/// epilogue applied to each produced C tile; op() reads an operand as
/// stored or transposed (MatMulOperand). One task covers a (bi x bj)-tile
/// block of C and a bk-tile range of k. When bk splits the k dimension
/// into nk>1 ranges, each task writes its partial products to
/// PartialName(out, p) and the epilogue is deferred to the SumJob that
/// merges the partials (see AddMatMul in physical_plan.h, which wires that
/// follow-up job).
class MatMulJob : public PhysicalJob {
 public:
  MatMulJob(std::string name, MatMulOperand a, MatMulOperand b,
            TiledMatrix out, MatMulParams params,
            std::vector<EwStep> epilogue);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

  /// Number of k ranges the params split this multiply into.
  int64_t NumKSplits() const;

  /// Structural accessors for the plan verifier's split-arithmetic pass
  /// (src/verify), which re-derives tile coverage from first principles.
  const MatMulParams& params() const { return params_; }
  const MatMulOperand& a() const { return a_; }
  const MatMulOperand& b() const { return b_; }
  const TiledMatrix& out() const { return out_; }

  /// Worst-case working set of one task: the input block a task buffers
  /// (bi x bk tiles of A, bk x bj of B) plus one output accumulator. The
  /// optimizer rejects split parameters whose tasks exceed a slot's share
  /// of machine memory.
  static int64_t TaskMemoryBytes(const TileLayout& a, const TileLayout& b,
                                 const MatMulParams& params);

  /// The row panels one task covers when bi = 0: the largest group of at
  /// most RowPanelJob::kPanelsPerTask panels that adds no row-panel work
  /// to any of `total_slots` slots, i.e. the largest b with
  /// b * ceil(ceil(gi / b) / S) <= ceil(gi / S). Each slot then does the
  /// row-panel work of one panel per task, and reads op(B) once per group
  /// instead of once per panel. 1 when `total_slots` is 0 (unknown).
  static int64_t RowPanelsPerTask(int64_t gi, int total_slots);

  /// Name of the partial-product matrix for k-range `p`.
  static std::string PartialName(const std::string& out, int64_t p);

 private:
  std::string name_;
  MatMulOperand a_, b_;
  TiledMatrix out_;
  MatMulParams params_;
  std::vector<EwStep> epilogue_;
};

/// Z = X^T * f(X * V) from one read of X. Each task reads kPanelsPerTask
/// consecutive row panels X_i once, through its reader's memo; for each
/// panel it computes U_i = f(X_i * V), with f the element-wise `steps`
/// applied to each U tile, then accumulates X_i^T * U_i into one partial
/// of Z, reading X_i's tiles transposed in place. V spans one tile column,
/// so U_i is a single tile. Task p writes PartialName(out, p); the SumJob
/// that AddRowPanel (physical_plan.h) wires after it merges the partials
/// and carries the outer epilogue, as for a split-k multiply.
class RowPanelJob : public PhysicalJob {
 public:
  /// Row panels per task. Every task holds and writes one full partial of
  /// Z, so this sets how many partials (and how much partial memory) the
  /// chain costs against how many tasks share the read of X. It also
  /// bounds the row groups of a multiply built with bi = 0
  /// (MatMulJob::RowPanelsPerTask).
  static constexpr int64_t kPanelsPerTask = 2;

  /// Output tiles per task of the merging SumJob: the partials are few and
  /// whole, so one tile per task spreads the merge over every slot.
  static constexpr int64_t kMergeTilesPerTask = 1;

  RowPanelJob(std::string name, TiledMatrix x, TiledMatrix v, TiledMatrix out,
              std::vector<EwStep> steps);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

  /// Number of partials (= tasks): X's row panels in groups of
  /// kPanelsPerTask.
  int64_t NumPartials() const;

 private:
  std::string name_;
  TiledMatrix x_, v_, out_;
  std::vector<EwStep> steps_;
};

/// out = sum(parts) with an optional fused epilogue; merges the partial
/// products of a split-k multiply or a RowPanelJob. All parts share out's
/// layout.
class SumJob : public PhysicalJob {
 public:
  SumJob(std::string name, std::vector<std::string> parts, TiledMatrix out,
         std::vector<EwStep> epilogue, int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  std::vector<std::string> parts_;
  TiledMatrix out_;
  std::vector<EwStep> epilogue_;
  int64_t tiles_per_task_;
};

/// out = steps(in) applied tile-by-tile (no multiply involved). The
/// unfused fallback for element-wise expressions.
class EwChainJob : public PhysicalJob {
 public:
  EwChainJob(std::string name, TiledMatrix in, TiledMatrix out,
             std::vector<EwStep> steps, int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  std::vector<EwStep> steps_;
  int64_t tiles_per_task_;
};

/// Aggregation flavors: fold a matrix to a column (row sums) or a row
/// (column sums). Statistical programs use these for normalizations,
/// means, and convergence checks.
enum class AggKind { kRowSums, kColSums };

const char* AggKindName(AggKind kind);

/// Layout of the aggregate of a matrix with layout `in`: rows x 1 for row
/// sums (tile grid collapses along columns), 1 x cols for column sums.
TileLayout AggOutputLayout(const TileLayout& in, AggKind kind);

/// out = agg(in) with an optional fused element-wise epilogue (e.g. a
/// 1/n scale to turn sums into means). One task covers `stripes_per_task`
/// tile-grid rows (row sums) or columns (column sums) and reads the full
/// stripe of input tiles.
class AggregateJob : public PhysicalJob {
 public:
  AggregateJob(std::string name, TiledMatrix in, TiledMatrix out,
               AggKind kind, std::vector<EwStep> epilogue,
               int64_t stripes_per_task = 1);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  AggKind kind_;
  std::vector<EwStep> epilogue_;
  int64_t stripes_per_task_;
};

/// out = in^T; tile (i,j) of the output is the transpose of tile (j,i).
/// Lowering emits it only for a transpose no multiply consumes (an
/// assigned `At = T(A)`, an element-wise operand); a multiply reads a
/// transposed operand in place instead (MatMulOperand).
class TransposeJob : public PhysicalJob {
 public:
  TransposeJob(std::string name, TiledMatrix in, TiledMatrix out,
               int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  int64_t tiles_per_task_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_PHYSICAL_JOB_H_
