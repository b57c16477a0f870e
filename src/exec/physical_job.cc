#include "exec/physical_job.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/strings.h"
#include "exec/memory_budget.h"
#include "exec/prefetch_pipeline.h"

namespace cumulon {

namespace {

int64_t TileBytes(const TileLayout& layout, int64_t gr, int64_t gc) {
  return 16 + layout.TileRowsAt(gr) * layout.TileColsAt(gc) * 8;
}

/// Splits the tile grid of `layout` into groups of at most `per_task` tiles
/// in row-major order.
std::vector<std::vector<TileId>> GroupTiles(const TileLayout& layout,
                                            int64_t per_task) {
  per_task = std::max<int64_t>(per_task, 1);
  std::vector<std::vector<TileId>> groups;
  std::vector<TileId> current;
  for (int64_t gr = 0; gr < layout.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < layout.grid_cols(); ++gc) {
      current.push_back(TileId{gr, gc});
      if (static_cast<int64_t>(current.size()) == per_task) {
        groups.push_back(std::move(current));
        current.clear();
      }
    }
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

/// One tile a task body reads: the stored matrix (an index into its
/// frame's `matrices`) and tile id, the tile's serialized size, and whether
/// the body reads it through the task's memo (TaskTileReader::ReadMemoized)
/// or straight (Read).
struct TileRead {
  size_t matrix = 0;
  TileId id;
  int64_t bytes = 0;
  bool memoized = false;
};

/// A task's compute on its worker. `reader` has every listed read hinted;
/// the body writes its output tiles to `store` from `machine`.
using TaskBody = std::function<Status(TaskTileReader* reader, TileStore* store,
                                      int machine, KernelMode mode)>;

/// One task as its job lists it: the tiles its body reads, in read order
/// and with repeats (a broadcast operand is listed for each output tile
/// that reads it, though the memo fetches it once); the tiles it writes;
/// its CPU seconds; and, in real mode, its body. The read list is both the
/// task's hint sequence and the base of its declared bytes, so the two
/// cannot drift apart. AddTask turns a frame into a Task.
struct TaskFrame {
  /// Index of `matrix` in `matrices`, added on first use.
  size_t Matrix(const std::string& matrix) {
    size_t m = 0;
    while (m < matrices.size() && matrices[m] != matrix) ++m;
    if (m == matrices.size()) matrices.push_back(matrix);
    return m;
  }

  /// List the body's next reader->Read or reader->ReadMemoized: tile `id`
  /// of matrix `m` (an index from Matrix), `bytes` serialized.
  void Read(size_t m, TileId id, int64_t bytes) {
    reads.push_back(TileRead{m, id, bytes, /*memoized=*/false});
  }
  void ReadMemoized(size_t m, TileId id, int64_t bytes) {
    reads.push_back(TileRead{m, id, bytes, /*memoized=*/true});
  }

  /// Bytes the reader fetches for `reads` when nothing spills: each Read
  /// entry whose tile is not pinned, and the first ReadMemoized entry of
  /// each tile, which pins it.
  int64_t FetchedBytes() const;

  std::string name;
  std::vector<std::string> matrices;  // the distinct matrices `reads` name
  std::vector<TileRead> reads;
  /// Leading reads whose replica holders the task prefers.
  size_t locality_reads = 1;
  std::vector<TileOutput> outputs;
  double cpu_seconds_ref = 0.0;
  TaskBody body;
};

int64_t TaskFrame::FetchedBytes() const {
  // The optimizer runs this for every task of every plan it predicts. A
  // task reads a block of each matrix, so a pinned bit per tile of the box
  // bounding those reads is small, and much cheaper than a set of tiles.
  struct Box {
    int64_t row0 = INT64_MAX, col0 = INT64_MAX, row1 = -1, col1 = -1;
    std::vector<bool> pinned;
  };
  std::vector<Box> boxes(matrices.size());
  for (const TileRead& read : reads) {
    Box& box = boxes[read.matrix];
    box.row0 = std::min(box.row0, read.id.row);
    box.col0 = std::min(box.col0, read.id.col);
    box.row1 = std::max(box.row1, read.id.row);
    box.col1 = std::max(box.col1, read.id.col);
  }
  for (Box& box : boxes) {
    if (box.row1 < 0) continue;  // a matrix with no reads
    box.pinned.resize((box.row1 - box.row0 + 1) * (box.col1 - box.col0 + 1));
  }
  int64_t bytes = 0;
  for (const TileRead& read : reads) {
    Box& box = boxes[read.matrix];
    std::vector<bool>::reference pinned =
        box.pinned[(read.id.row - box.row0) * (box.col1 - box.col0 + 1) +
                   (read.id.col - box.col0)];
    if (pinned) continue;
    bytes += read.bytes;
    if (read.memoized) pinned = true;
  }
  return bytes;
}

/// Appends what `steps` cost on output tile `id` of `layout` to `frame`:
/// one element-wise pass per step, plus the multiply of a product step's
/// factors; and the operand tiles the steps read, in step order and through
/// the memo. Full operands align 1:1, broadcast vectors collapse one axis,
/// and a product step reads its factors L(i,0) and R(0,j). A tile two steps
/// read is listed once for this output tile (GNMF's W_i is a product factor
/// and the next step's operand).
void AddSteps(const std::vector<EwStep>& steps, const TileLayout& layout,
              TileId id, const TileOpCostModel& cost, TaskFrame* frame) {
  const int64_t rows = layout.TileRowsAt(id.row);
  const int64_t cols = layout.TileColsAt(id.col);
  const size_t first = frame->reads.size();
  auto add = [frame, first](const std::string& matrix, TileId tile,
                            int64_t bytes) {
    const size_t m = frame->Matrix(matrix);
    for (size_t r = first; r < frame->reads.size(); ++r) {
      if (frame->reads[r].matrix == m && frame->reads[r].id == tile) return;
    }
    frame->ReadMemoized(m, tile, bytes);
  };
  for (const EwStep& step : steps) {
    frame->cpu_seconds_ref += cost.EwSeconds(rows * cols);
    if (step.kind != EwStep::Kind::kBinary) continue;
    switch (step.operand) {
      case EwStep::Operand::kFull:
        add(step.other_matrix, id, 16 + rows * cols * 8);
        break;
      case EwStep::Operand::kRowVector:
        add(step.other_matrix, TileId{0, id.col}, 16 + cols * 8);
        break;
      case EwStep::Operand::kColVector:
        add(step.other_matrix, TileId{id.row, 0}, 16 + rows * 8);
        break;
      case EwStep::Operand::kProduct:
        frame->cpu_seconds_ref += cost.GemmSeconds(rows, cols, step.inner);
        add(step.other_matrix, TileId{id.row, 0}, 16 + rows * step.inner * 8);
        add(step.right_factor, TileId{0, id.col}, 16 + step.inner * cols * 8);
        break;
    }
  }
}

/// Applies product step `step` to `value` (grid position `id`): multiplies
/// the factor tiles L(i,0) and R(0,j) into a zeroed tile with the Gemm
/// MatMulJob runs for a one-tile k, so the step sees the bits a
/// materialized L * R would hold. The product tile is task scratch.
Status ApplyProductStep(const EwStep& step, TaskTileReader* reader, TileId id,
                        Tile* value, KernelMode mode) {
  Tile product(value->rows(), value->cols());
  const TaskTileReader::ScratchReservation scratch =
      reader->PinScratch(product.MemoryBytes());
  CUMULON_ASSIGN_OR_RETURN(
      std::shared_ptr<const Tile> left,
      reader->ReadMemoized(step.other_matrix, TileId{id.row, 0}));
  CUMULON_ASSIGN_OR_RETURN(
      std::shared_ptr<const Tile> right,
      reader->ReadMemoized(step.right_factor, TileId{0, id.col}));
  CUMULON_RETURN_IF_ERROR(
      GemmWithMode(mode, *left, *right, 1.0, 1.0, &product));
  return ApplyEwStep(step, value, &product, mode);
}

/// Runs `steps` on `value` (grid position `id`), fetching binary operands
/// through the task's reader. Operands are memoized per task: broadcast
/// vectors recur for every output tile, and the memo turns those repeats
/// into local-memory lookups instead of cache-lock round trips.
Status RunEwSteps(const std::vector<EwStep>& steps, TaskTileReader* reader,
                  TileId id, Tile* value, KernelMode mode) {
  for (const EwStep& step : steps) {
    if (step.kind == EwStep::Kind::kUnary) {
      CUMULON_RETURN_IF_ERROR(ApplyEwStep(step, value, nullptr, mode));
    } else if (step.operand == EwStep::Operand::kProduct) {
      CUMULON_RETURN_IF_ERROR(
          ApplyProductStep(step, reader, id, value, mode));
    } else {
      const TileId other_id =
          step.operand == EwStep::Operand::kRowVector   ? TileId{0, id.col}
          : step.operand == EwStep::Operand::kColVector ? TileId{id.row, 0}
                                                        : id;
      CUMULON_ASSIGN_OR_RETURN(
          std::shared_ptr<const Tile> other,
          reader->ReadMemoized(step.other_matrix, other_id));
      CUMULON_RETURN_IF_ERROR(ApplyEwStep(step, value, other.get(), mode));
    }
  }
  return Status::OK();
}

void MergePreferred(std::vector<int>* dst, const std::vector<int>& src,
                    size_t cap = 8) {
  for (int node : src) {
    if (dst->size() >= cap) return;
    if (std::find(dst->begin(), dst->end(), node) == dst->end()) {
      dst->push_back(node);
    }
  }
}

/// Appends `frame` to `built` as a task and returns it, for the job's own
/// model terms. The task declares the frame's FetchedBytes, its outputs'
/// bytes and its CPU seconds, and prefers the machines that hold its first
/// `locality_reads` reads. In real mode its work opens the task's reader on
/// the node's memory ledger, hints the read list in order and runs the
/// body.
Task& AddTask(const BuildContext& ctx, TaskFrame frame, BuiltJob* built) {
  Task task;
  task.name = std::move(frame.name);
  task.cost.cpu_seconds_ref = frame.cpu_seconds_ref;
  task.cost.bytes_read = frame.FetchedBytes();
  for (const TileOutput& output : frame.outputs) {
    task.cost.bytes_written += output.bytes;
  }
  if (ctx.store != nullptr) {
    for (size_t r = 0; r < frame.locality_reads && r < frame.reads.size();
         ++r) {
      const TileRead& read = frame.reads[r];
      MergePreferred(&task.preferred_machines,
                     ctx.store->PreferredNodes(frame.matrices[read.matrix],
                                               read.id));
    }
  }
  if (ctx.attach_work) {
    task.work = [store = ctx.store, matrices = std::move(frame.matrices),
                 reads = std::move(frame.reads), body = std::move(frame.body),
                 budget = ctx.prefetch_budget_bytes, mode = ctx.kernel_mode,
                 mem = ctx.memory_budget,
                 pin_bytes = ctx.task_pin_bytes](int machine) -> Status {
      TaskTileReader reader(store, machine, budget,
                            mem != nullptr ? mem->node(machine) : nullptr,
                            pin_bytes);
      for (const TileRead& read : reads) {
        reader.Hint(matrices[read.matrix], read.id, read.bytes);
      }
      return body(&reader, store, machine, mode);
    };
  }
  built->spec.tasks.push_back(std::move(task));
  built->task_outputs.push_back(std::move(frame.outputs));
  return built->spec.tasks.back();
}

/// Appends the matrices `steps` read: each binary step's operand, and both
/// factors of a product step.
void AppendStepOperands(const std::vector<EwStep>& steps,
                        std::vector<std::string>* matrices) {
  for (const EwStep& step : steps) {
    if (step.kind != EwStep::Kind::kBinary) continue;
    matrices->push_back(step.other_matrix);
    if (step.operand == EwStep::Operand::kProduct) {
      matrices->push_back(step.right_factor);
    }
  }
}

std::string EwChainToString(const std::vector<EwStep>& steps) {
  std::string s;
  for (const EwStep& step : steps) {
    if (!s.empty()) s += " . ";
    s += step.ToString();
  }
  return s;
}

}  // namespace

std::string MatMulParams::ToString() const {
  return StrCat("bi=", bi, ",bj=", bj, ",bk=", bk <= 0 ? -1 : bk);
}

// ---------------------------------------------------------------------------
// MatMulJob
// ---------------------------------------------------------------------------

std::string MatMulOperand::ToString() const {
  return transposed() ? StrCat(stored.name, "^T") : stored.name;
}

MatMulJob::MatMulJob(std::string name, MatMulOperand a, MatMulOperand b,
                     TiledMatrix out, MatMulParams params,
                     std::vector<EwStep> epilogue)
    : name_(std::move(name)),
      a_(std::move(a)),
      b_(std::move(b)),
      out_(std::move(out)),
      params_(params),
      epilogue_(std::move(epilogue)) {}

int64_t MatMulJob::NumKSplits() const {
  const int64_t gk = a_.layout().grid_cols();
  const int64_t bk =
      params_.bk <= 0 ? gk : std::min<int64_t>(params_.bk, gk);
  return (gk + bk - 1) / bk;
}

std::string MatMulJob::PartialName(const std::string& out, int64_t p) {
  return StrCat(out, "#k", p);
}

int64_t MatMulJob::TaskMemoryBytes(const TileLayout& a, const TileLayout& b,
                                   const MatMulParams& params) {
  const int64_t gi = a.grid_rows();
  const int64_t gj = b.grid_cols();
  const int64_t gk = a.grid_cols();
  const int64_t bi = std::clamp<int64_t>(params.bi, 1, gi);
  const int64_t bj = std::clamp<int64_t>(params.bj, 1, gj);
  const int64_t bk =
      params.bk <= 0 ? gk : std::clamp<int64_t>(params.bk, 1, gk);
  const int64_t a_tile = a.tile_rows() * a.tile_cols() * 8;
  const int64_t b_tile = b.tile_rows() * b.tile_cols() * 8;
  const int64_t c_tile = a.tile_rows() * b.tile_cols() * 8;
  return bi * bk * a_tile + bk * bj * b_tile + c_tile;
}

int64_t MatMulJob::RowPanelsPerTask(int64_t gi, int total_slots) {
  if (total_slots <= 0 || gi <= 1) return 1;
  auto ceil_div = [](int64_t n, int64_t d) { return (n + d - 1) / d; };
  const int64_t panels_per_slot = ceil_div(gi, total_slots);
  for (int64_t b = RowPanelJob::kPanelsPerTask; b > 1; --b) {
    if (b * ceil_div(ceil_div(gi, b), total_slots) <= panels_per_slot) {
      return b;
    }
  }
  return 1;
}

std::vector<std::string> MatMulJob::InputMatrices() const {
  std::vector<std::string> in = {a_.stored.name, b_.stored.name};
  if (NumKSplits() == 1) AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> MatMulJob::OutputMatrices() const {
  const int64_t nk = NumKSplits();
  if (nk == 1) return {out_.name};
  std::vector<std::string> out;
  for (int64_t p = 0; p < nk; ++p) out.push_back(PartialName(out_.name, p));
  return out;
}

std::string MatMulJob::DebugString() const {
  return StrCat("MatMul[", name_, "] ", out_.name, " = ", a_.ToString(),
                " * ", b_.ToString(), " (", params_.ToString(), ")",
                epilogue_.empty() ? ""
                                  : StrCat(" epi{", EwChainToString(epilogue_),
                                           "}"));
}

Result<BuiltJob> MatMulJob::Build(const BuildContext& ctx) const {
  // Shapes, splits and declared bytes work in the logical layouts of
  // op(A) and op(B); only tile ids are mapped back to the stored ones.
  const TileLayout la = a_.layout();
  const TileLayout lb = b_.layout();
  const TileLayout& lc = out_.layout;
  if (la.cols() != lb.rows()) {
    return Status::InvalidArgument(
        StrCat(name_, ": inner dimensions differ: A ", la.ToString(), ", B ",
               lb.ToString()));
  }
  if (!InnerAligned(la, lb)) {
    return Status::InvalidArgument(
        StrCat(name_, ": tile grids not aligned on k: A ", la.ToString(),
               " vs B ", lb.ToString()));
  }
  if (!RowPartitionsEqual(lc, la) || !ColPartitionsEqual(lc, lb)) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout ", lc.ToString(),
               " inconsistent with A ", la.ToString(), " and B ",
               lb.ToString()));
  }

  const int64_t gi = la.grid_rows();
  const int64_t gj = lb.grid_cols();
  const int64_t gk = la.grid_cols();
  const int64_t bi = params_.bi == 0
                         ? RowPanelsPerTask(gi, ctx.total_slots)
                         : std::clamp<int64_t>(params_.bi, 1, gi);
  const int64_t bj = std::clamp<int64_t>(params_.bj, 1, gj);
  const int64_t bk =
      params_.bk <= 0 ? gk : std::clamp<int64_t>(params_.bk, 1, gk);
  const int64_t nk = (gk + bk - 1) / bk;

  // --- Node-local cache model ---
  // Each A tile is read by one task per j-block (gj/bj of them), each B
  // tile by one task per i-block. With a per-node cache those re-reads
  // collapse to roughly one DFS fetch per node that touches the tile:
  // expected misses per tile = min(readers, nodes), so the cached
  // fraction of a task's A/B bytes is 1 - nodes/readers. Hits only
  // materialize while the tiles stay resident, so the fractions are
  // scaled by how much of a node's share of the input set fits in its
  // cache budget.
  const int64_t a_readers = (gj + bj - 1) / bj;
  const int64_t b_readers = (gi + bi - 1) / bi;
  double a_hit_frac = 0.0, b_hit_frac = 0.0;
  if (ctx.node_cache_bytes > 0 && ctx.cache_nodes > 0) {
    const double nodes = static_cast<double>(ctx.cache_nodes);
    if (a_readers > ctx.cache_nodes) a_hit_frac = 1.0 - nodes / a_readers;
    if (b_readers > ctx.cache_nodes) b_hit_frac = 1.0 - nodes / b_readers;
    const double input_bytes =
        static_cast<double>(16 * gi * gk + la.rows() * la.cols() * 8) +
        static_cast<double>(16 * gk * gj + lb.rows() * lb.cols() * 8);
    const double per_node_share = input_bytes / nodes;
    const double fit =
        per_node_share <= 0.0
            ? 1.0
            : std::min(1.0, static_cast<double>(ctx.node_cache_bytes) /
                                per_node_share);
    a_hit_frac *= fit;
    b_hit_frac *= fit;
  }

  BuiltJob built;
  built.spec.name = name_;

  for (int64_t kb = 0; kb < nk; ++kb) {
    const int64_t k0 = kb * bk;
    const int64_t k1 = std::min(k0 + bk, gk);
    const std::string out_name =
        nk == 1 ? out_.name : PartialName(out_.name, kb);
    const std::vector<EwStep> epilogue =
        nk == 1 ? epilogue_ : std::vector<EwStep>{};

    for (int64_t ib = 0; ib < gi; ib += bi) {
      const int64_t i1 = std::min(ib + bi, gi);
      for (int64_t jb = 0; jb < gj; jb += bj) {
        const int64_t j1 = std::min(jb + bj, gj);

        // Per output tile (i,j): its k range of A and B tiles, then the
        // epilogue's operands. A and B tiles recur across the block (A per
        // j, B per i), so they go through the memo, which bounds the
        // task's live set to the bi*bk + bk*bj tiles TaskMemoryBytes
        // budgets for (or, under a memory budget, to the pin window: older
        // panels spill and stream back in). Operand tiles are read under
        // their stored ids: (k,i) for a transposed A.
        TaskFrame frame;
        frame.name = StrCat(name_, "/t", ib, "_", jb, "_", kb);
        frame.locality_reads = 2;  // the block's first A and first B tile
        const size_t a_matrix = frame.Matrix(a_.stored.name);
        const size_t b_matrix = frame.Matrix(b_.stored.name);
        frame.reads.reserve(2 * (i1 - ib) * (j1 - jb) * (k1 - k0));
        int64_t a_bytes = 0, b_bytes = 0;
        for (int64_t i = ib; i < i1; ++i) {
          for (int64_t j = jb; j < j1; ++j) {
            for (int64_t k = k0; k < k1; ++k) {
              const int64_t a_tile = TileBytes(la, i, k);
              const int64_t b_tile = TileBytes(lb, k, j);
              if (j == jb) a_bytes += a_tile;
              if (i == ib) b_bytes += b_tile;
              frame.ReadMemoized(a_matrix, a_.StoredId(i, k), a_tile);
              frame.ReadMemoized(b_matrix, b_.StoredId(k, j), b_tile);
              frame.cpu_seconds_ref += ctx.cost->GemmSeconds(
                  lc.TileRowsAt(i), lc.TileColsAt(j), la.TileColsAt(k));
            }
            AddSteps(epilogue, lc, TileId{i, j}, *ctx.cost, &frame);
            frame.outputs.push_back(
                TileOutput{out_name, TileId{i, j}, TileBytes(lc, i, j)});
          }
        }
        if (ctx.attach_work) {
          frame.body = [a = a_, b = b_, lc, out_name, epilogue, ib, i1, jb, j1,
                        k0, k1](TaskTileReader* reader, TileStore* store,
                                int machine, KernelMode mode) -> Status {
            for (int64_t i = ib; i < i1; ++i) {
              for (int64_t j = jb; j < j1; ++j) {
                Tile acc(lc.TileRowsAt(i), lc.TileColsAt(j));
                const TaskTileReader::ScratchReservation scratch =
                    reader->PinScratch(acc.MemoryBytes());
                for (int64_t k = k0; k < k1; ++k) {
                  CUMULON_ASSIGN_OR_RETURN(
                      std::shared_ptr<const Tile> ta,
                      reader->ReadMemoized(a.stored.name, a.StoredId(i, k)));
                  CUMULON_ASSIGN_OR_RETURN(
                      std::shared_ptr<const Tile> tb,
                      reader->ReadMemoized(b.stored.name, b.StoredId(k, j)));
                  CUMULON_RETURN_IF_ERROR(GemmWithMode(mode, *ta, *tb, 1.0, 1.0,
                                                       &acc, a.orientation,
                                                       b.orientation));
                }
                CUMULON_RETURN_IF_ERROR(
                    RunEwSteps(epilogue, reader, TileId{i, j}, &acc, mode));
                CUMULON_RETURN_IF_ERROR(store->Put(
                    out_name, TileId{i, j},
                    std::make_shared<Tile>(std::move(acc)), machine));
              }
            }
            return Status::OK();
          };
        }

        Task& task = AddTask(ctx, std::move(frame), &built);
        task.cost.bytes_read_cached = static_cast<int64_t>(
            a_bytes * a_hit_frac + b_bytes * b_hit_frac);
        if (ctx.task_pin_bytes > 0) {
          // Out-of-core streaming term (cost/cost_model.h): the compute
          // order touches the A block once per j unit and the B block once
          // per i unit; whatever fraction of the working set exceeds the
          // task's pin share is re-fetched on each extra touch.
          const int64_t working_set =
              a_bytes + b_bytes + TileBytes(lc, ib, jb);
          task.cost.bytes_read += static_cast<int64_t>(
              StreamingRefetchBytes(a_bytes, static_cast<double>(j1 - jb),
                                    working_set, ctx.task_pin_bytes) +
              StreamingRefetchBytes(b_bytes, static_cast<double>(i1 - ib),
                                    working_set, ctx.task_pin_bytes));
        }
      }
    }
  }
  return built;
}

// ---------------------------------------------------------------------------
// RowPanelJob
// ---------------------------------------------------------------------------

RowPanelJob::RowPanelJob(std::string name, TiledMatrix x, TiledMatrix v,
                         TiledMatrix out, std::vector<EwStep> steps)
    : name_(std::move(name)),
      x_(std::move(x)),
      v_(std::move(v)),
      out_(std::move(out)),
      steps_(std::move(steps)) {}

int64_t RowPanelJob::NumPartials() const {
  return (x_.layout.grid_rows() + kPanelsPerTask - 1) / kPanelsPerTask;
}

std::vector<std::string> RowPanelJob::InputMatrices() const {
  std::vector<std::string> in = {x_.name, v_.name};
  AppendStepOperands(steps_, &in);
  return in;
}

std::vector<std::string> RowPanelJob::OutputMatrices() const {
  std::vector<std::string> out;
  for (int64_t p = 0; p < NumPartials(); ++p) {
    out.push_back(MatMulJob::PartialName(out_.name, p));
  }
  return out;
}

std::string RowPanelJob::DebugString() const {
  const std::string inner = StrCat("(", x_.name, " * ", v_.name, ")");
  return StrCat("RowPanel[", name_, "] ", out_.name, " = ", x_.name, "^T * ",
                steps_.empty()
                    ? inner
                    : StrCat("{", EwChainToString(steps_), "}", inner),
                " (", NumPartials(), " partials)");
}

Result<BuiltJob> RowPanelJob::Build(const BuildContext& ctx) const {
  const TileLayout& lx = x_.layout;
  const TileLayout& lv = v_.layout;
  const TileLayout& lz = out_.layout;
  // U = X * V, the per-panel intermediate f is applied to.
  const TileLayout lu(lx.rows(), lv.cols(), lx.tile_rows(), lv.tile_cols());
  if (!InnerAligned(lx, lv)) {
    return Status::InvalidArgument(
        StrCat(name_, ": X ", lx.ToString(), " and V ", lv.ToString(),
               " are not aligned on k"));
  }
  if (lv.grid_cols() != 1) {
    return Status::InvalidArgument(
        StrCat(name_, ": V ", lv.ToString(), " spans ", lv.grid_cols(),
               " tile columns, not one"));
  }
  if (!RowPartitionsEqual(lz, lx.Transposed()) ||
      !ColPartitionsEqual(lz, lv)) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout ", lz.ToString(),
               " inconsistent with X^T ", lx.Transposed().ToString(),
               " and V ", lv.ToString()));
  }

  const int64_t gi = lx.grid_rows();
  const int64_t gk = lx.grid_cols();
  int64_t v_bytes = 0, z_bytes = 0;
  for (int64_t k = 0; k < gk; ++k) {
    v_bytes += TileBytes(lv, k, 0);
    z_bytes += TileBytes(lz, k, 0);
  }

  BuiltJob built;
  built.spec.name = name_;
  for (int64_t i0 = 0, p = 0; i0 < gi; i0 += kPanelsPerTask, ++p) {
    const int64_t i1 = std::min(i0 + kPanelsPerTask, gi);
    const std::string out_name = MatMulJob::PartialName(out_.name, p);

    // Per panel X_i: its tiles with V's for U_i, then f's operands; both
    // multiplies and f are charged. X and V go through the memo: each X
    // tile is read for U_i and again, transposed, for Z (a pass the memo
    // serves, so it is not listed), and V recurs for every panel.
    TaskFrame frame;
    frame.name = StrCat(name_, "/t", p);
    const size_t x_matrix = frame.Matrix(x_.name);
    const size_t v_matrix = frame.Matrix(v_.name);
    int64_t x_bytes = 0, panel_bytes = 0;
    for (int64_t i = i0; i < i1; ++i) {
      int64_t this_panel = 0;
      for (int64_t k = 0; k < gk; ++k) {
        this_panel += TileBytes(lx, i, k);
        frame.ReadMemoized(x_matrix, TileId{i, k}, TileBytes(lx, i, k));
        frame.ReadMemoized(v_matrix, TileId{k, 0}, TileBytes(lv, k, 0));
        frame.cpu_seconds_ref +=
            ctx.cost->GemmSeconds(lu.TileRowsAt(i), lu.TileColsAt(0),
                                  lx.TileColsAt(k)) +
            ctx.cost->GemmSeconds(lz.TileRowsAt(k), lz.TileColsAt(0),
                                  lx.TileRowsAt(i));
      }
      AddSteps(steps_, lu, TileId{i, 0}, *ctx.cost, &frame);
      x_bytes += this_panel;
      panel_bytes = std::max(panel_bytes, this_panel);
    }
    for (int64_t k = 0; k < gk; ++k) {
      frame.outputs.push_back(
          TileOutput{out_name, TileId{k, 0}, TileBytes(lz, k, 0)});
    }
    if (ctx.attach_work) {
      frame.body = [x_name = x_.name, v_name = v_.name, steps = steps_, lu, lz,
                    out_name, i0, i1, gk](TaskTileReader* reader,
                                          TileStore* store, int machine,
                                          KernelMode mode) -> Status {
        std::vector<Tile> z;
        z.reserve(gk);
        int64_t z_memory = 0;
        for (int64_t k = 0; k < gk; ++k) {
          z.emplace_back(lz.TileRowsAt(k), lz.TileColsAt(0));
          z_memory += z.back().MemoryBytes();
        }
        const TaskTileReader::ScratchReservation z_scratch =
            reader->PinScratch(z_memory);
        for (int64_t i = i0; i < i1; ++i) {
          Tile u(lu.TileRowsAt(i), lu.TileColsAt(0));
          const TaskTileReader::ScratchReservation u_scratch =
              reader->PinScratch(u.MemoryBytes());
          for (int64_t k = 0; k < gk; ++k) {
            CUMULON_ASSIGN_OR_RETURN(
                std::shared_ptr<const Tile> tx,
                reader->ReadMemoized(x_name, TileId{i, k}));
            CUMULON_ASSIGN_OR_RETURN(
                std::shared_ptr<const Tile> tv,
                reader->ReadMemoized(v_name, TileId{k, 0}));
            CUMULON_RETURN_IF_ERROR(GemmWithMode(mode, *tx, *tv, 1.0, 1.0, &u));
          }
          CUMULON_RETURN_IF_ERROR(
              RunEwSteps(steps, reader, TileId{i, 0}, &u, mode));
          for (int64_t k = 0; k < gk; ++k) {
            CUMULON_ASSIGN_OR_RETURN(
                std::shared_ptr<const Tile> tx,
                reader->ReadMemoized(x_name, TileId{i, k}));
            CUMULON_RETURN_IF_ERROR(GemmWithMode(mode, *tx, u, 1.0, 1.0, &z[k],
                                                 Orientation::kTransposed));
          }
        }
        for (int64_t k = 0; k < gk; ++k) {
          CUMULON_RETURN_IF_ERROR(
              store->Put(out_name, TileId{k, 0},
                         std::make_shared<Tile>(std::move(z[k])), machine));
        }
        return Status::OK();
      };
    }

    Task& task = AddTask(ctx, std::move(frame), &built);
    if (ctx.task_pin_bytes > 0) {
      // Out-of-core streaming term: each X tile is touched twice per
      // panel (for U_i, then transposed for Z) and V once per panel.
      const int64_t working_set =
          panel_bytes + v_bytes + z_bytes + TileBytes(lu, i0, 0);
      task.cost.bytes_read += static_cast<int64_t>(
          StreamingRefetchBytes(x_bytes, 2.0, working_set,
                                ctx.task_pin_bytes) +
          StreamingRefetchBytes(v_bytes, static_cast<double>(i1 - i0),
                                working_set, ctx.task_pin_bytes));
    }
  }
  return built;
}

// ---------------------------------------------------------------------------
// SumJob
// ---------------------------------------------------------------------------

SumJob::SumJob(std::string name, std::vector<std::string> parts,
               TiledMatrix out, std::vector<EwStep> epilogue,
               int64_t tiles_per_task)
    : name_(std::move(name)),
      parts_(std::move(parts)),
      out_(std::move(out)),
      epilogue_(std::move(epilogue)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> SumJob::InputMatrices() const {
  std::vector<std::string> in = parts_;
  AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> SumJob::OutputMatrices() const {
  return {out_.name};
}

std::string SumJob::DebugString() const {
  return StrCat("Sum[", name_, "] ", out_.name, " = sum of ", parts_.size(),
                " partials", epilogue_.empty()
                                 ? ""
                                 : StrCat(" epi{", EwChainToString(epilogue_),
                                          "}"));
}

Result<BuiltJob> SumJob::Build(const BuildContext& ctx) const {
  if (parts_.empty()) {
    return Status::InvalidArgument(StrCat(name_, ": no partials to sum"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    TaskFrame frame;
    frame.name = StrCat(name_, "/t", built.spec.tasks.size());
    for (const TileId& id : group) {
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      for (const std::string& part : parts_) {
        frame.Read(frame.Matrix(part), id, bytes);
      }
      frame.cpu_seconds_ref +=
          static_cast<double>(parts_.size()) *
          ctx.cost->AccumulateSeconds(lc.TileRowsAt(id.row) *
                                      lc.TileColsAt(id.col));
      AddSteps(epilogue_, lc, id, *ctx.cost, &frame);
      frame.outputs.push_back(TileOutput{out_.name, id, bytes});
    }
    if (ctx.attach_work) {
      frame.body = [parts = parts_, out_name = out_.name, lc,
                    epilogue = epilogue_,
                    group](TaskTileReader* reader, TileStore* store,
                           int machine, KernelMode mode) -> Status {
        for (const TileId& id : group) {
          Tile acc(lc.TileRowsAt(id.row), lc.TileColsAt(id.col));
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * acc.MemoryBytes());
          for (const std::string& part : parts) {
            CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                     reader->Read(part, id));
            CUMULON_RETURN_IF_ERROR(AccumulateIntoWithMode(mode, *t, &acc));
          }
          CUMULON_RETURN_IF_ERROR(RunEwSteps(epilogue, reader, id, &acc, mode));
          CUMULON_RETURN_IF_ERROR(store->Put(
              out_name, id, std::make_shared<Tile>(std::move(acc)), machine));
        }
        return Status::OK();
      };
    }
    AddTask(ctx, std::move(frame), &built);
  }
  return built;
}

// ---------------------------------------------------------------------------
// EwChainJob
// ---------------------------------------------------------------------------

EwChainJob::EwChainJob(std::string name, TiledMatrix in, TiledMatrix out,
                       std::vector<EwStep> steps, int64_t tiles_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      steps_(std::move(steps)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> EwChainJob::InputMatrices() const {
  std::vector<std::string> in = {in_.name};
  AppendStepOperands(steps_, &in);
  return in;
}

std::vector<std::string> EwChainJob::OutputMatrices() const {
  return {out_.name};
}

std::string EwChainJob::DebugString() const {
  return StrCat("EwChain[", name_, "] ", out_.name, " = {",
                EwChainToString(steps_), "}(", in_.name, ")");
}

Result<BuiltJob> EwChainJob::Build(const BuildContext& ctx) const {
  if (!GridsAlign(in_.layout, out_.layout)) {
    return Status::InvalidArgument(
        StrCat(name_, ": element-wise chain requires aligned grids (in ",
               in_.layout.ToString(), ", out ", out_.layout.ToString(), ")"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    TaskFrame frame;
    frame.name = StrCat(name_, "/t", built.spec.tasks.size());
    const size_t in_matrix = frame.Matrix(in_.name);
    for (const TileId& id : group) {
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      frame.Read(in_matrix, id, bytes);
      AddSteps(steps_, lc, id, *ctx.cost, &frame);
      frame.outputs.push_back(TileOutput{out_.name, id, bytes});
    }
    if (ctx.attach_work) {
      frame.body = [in_name = in_.name, out_name = out_.name, steps = steps_,
                    group](TaskTileReader* reader, TileStore* store,
                           int machine, KernelMode mode) -> Status {
        for (const TileId& id : group) {
          CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                   reader->Read(in_name, id));
          Tile value = *t;
          // Scratch covers the working copy plus the transient input tile
          // still alive in `t`.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * value.MemoryBytes());
          CUMULON_RETURN_IF_ERROR(RunEwSteps(steps, reader, id, &value, mode));
          CUMULON_RETURN_IF_ERROR(store->Put(
              out_name, id, std::make_shared<Tile>(std::move(value)), machine));
        }
        return Status::OK();
      };
    }
    AddTask(ctx, std::move(frame), &built);
  }
  return built;
}

// ---------------------------------------------------------------------------
// AggregateJob
// ---------------------------------------------------------------------------

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kRowSums:
      return "row_sums";
    case AggKind::kColSums:
      return "col_sums";
  }
  return "?";
}

TileLayout AggOutputLayout(const TileLayout& in, AggKind kind) {
  if (kind == AggKind::kRowSums) {
    return TileLayout(in.rows(), 1, in.tile_rows(), 1);
  }
  return TileLayout(1, in.cols(), 1, in.tile_cols());
}

AggregateJob::AggregateJob(std::string name, TiledMatrix in, TiledMatrix out,
                           AggKind kind, std::vector<EwStep> epilogue,
                           int64_t stripes_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      kind_(kind),
      epilogue_(std::move(epilogue)),
      stripes_per_task_(std::max<int64_t>(stripes_per_task, 1)) {}

std::vector<std::string> AggregateJob::InputMatrices() const {
  std::vector<std::string> in = {in_.name};
  AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> AggregateJob::OutputMatrices() const {
  return {out_.name};
}

std::string AggregateJob::DebugString() const {
  return StrCat("Aggregate[", name_, "] ", out_.name, " = ",
                AggKindName(kind_), "(", in_.name, ")",
                epilogue_.empty() ? ""
                                  : StrCat(" epi{", EwChainToString(epilogue_),
                                           "}"));
}

Result<BuiltJob> AggregateJob::Build(const BuildContext& ctx) const {
  const TileLayout& li = in_.layout;
  if (!GridsAlign(out_.layout, AggOutputLayout(li, kind_))) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout ", out_.layout.ToString(),
               " is not the ", AggKindName(kind_), " of ", li.ToString()));
  }
  const bool row_sums = kind_ == AggKind::kRowSums;
  const int64_t num_stripes = row_sums ? li.grid_rows() : li.grid_cols();
  const int64_t cross = row_sums ? li.grid_cols() : li.grid_rows();
  const TileLayout& lo = out_.layout;

  BuiltJob built;
  built.spec.name = name_;
  for (int64_t s0 = 0; s0 < num_stripes; s0 += stripes_per_task_) {
    const int64_t s1 = std::min(s0 + stripes_per_task_, num_stripes);
    // One output stripe s per step (row sums: grid row; col sums: grid
    // column), reading its full cross range of input tiles.
    TaskFrame frame;
    frame.name = StrCat(name_, "/t", s0);
    const size_t in_matrix = frame.Matrix(in_.name);
    for (int64_t s = s0; s < s1; ++s) {
      for (int64_t x = 0; x < cross; ++x) {
        const TileId in_id = row_sums ? TileId{s, x} : TileId{x, s};
        frame.Read(in_matrix, in_id, TileBytes(li, in_id.row, in_id.col));
        frame.cpu_seconds_ref += ctx.cost->EwSeconds(
            li.TileRowsAt(in_id.row) * li.TileColsAt(in_id.col));
      }
      const TileId out_id = row_sums ? TileId{s, 0} : TileId{0, s};
      AddSteps(epilogue_, lo, out_id, *ctx.cost, &frame);
      frame.outputs.push_back(TileOutput{
          out_.name, out_id, TileBytes(lo, out_id.row, out_id.col)});
    }
    if (ctx.attach_work) {
      frame.body = [in_name = in_.name, out_name = out_.name, li, lo,
                    epilogue = epilogue_, row_sums, s0, s1,
                    cross](TaskTileReader* reader, TileStore* store,
                           int machine, KernelMode mode) -> Status {
        for (int64_t s = s0; s < s1; ++s) {
          const TileId out_id = row_sums ? TileId{s, 0} : TileId{0, s};
          Tile acc(lo.TileRowsAt(out_id.row), lo.TileColsAt(out_id.col));
          // Scratch covers the accumulator, the per-chunk partial, and the
          // transient input tile being reduced.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(
                  2 * acc.MemoryBytes() +
                  AlignedFootprintBytes(li.tile_rows() * li.tile_cols() * 8));
          // Panel-partial reduction (tile_ops.h): each kAggPanelTiles-wide
          // panel folds into a zero partial, combined left-to-right into
          // acc. Panel width is a constant, so resident and streamed runs
          // at any budget add in the identical order.
          for (int64_t x0 = 0; x0 < cross; x0 += kAggPanelTiles) {
            const int64_t x1 = std::min(x0 + kAggPanelTiles, cross);
            Tile partial(acc.rows(), acc.cols());
            for (int64_t x = x0; x < x1; ++x) {
              const TileId in_id = row_sums ? TileId{s, x} : TileId{x, s};
              CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                       reader->Read(in_name, in_id));
              CUMULON_RETURN_IF_ERROR(
                  row_sums ? RowSumsPartialInto(*t, &partial)
                           : ColSumsIntoWithMode(mode, *t, &partial));
            }
            CUMULON_RETURN_IF_ERROR(
                CombineAggPartialWithMode(mode, partial, &acc));
          }
          CUMULON_RETURN_IF_ERROR(
              RunEwSteps(epilogue, reader, out_id, &acc, mode));
          CUMULON_RETURN_IF_ERROR(store->Put(
              out_name, out_id, std::make_shared<Tile>(std::move(acc)),
              machine));
        }
        return Status::OK();
      };
    }
    AddTask(ctx, std::move(frame), &built);
  }
  return built;
}

// ---------------------------------------------------------------------------
// TransposeJob
// ---------------------------------------------------------------------------

TransposeJob::TransposeJob(std::string name, TiledMatrix in, TiledMatrix out,
                           int64_t tiles_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> TransposeJob::InputMatrices() const {
  return {in_.name};
}

std::vector<std::string> TransposeJob::OutputMatrices() const {
  return {out_.name};
}

std::string TransposeJob::DebugString() const {
  return StrCat("Transpose[", name_, "] ", out_.name, " = ", in_.name, "^T");
}

Result<BuiltJob> TransposeJob::Build(const BuildContext& ctx) const {
  if (!GridsAlign(in_.layout.Transposed(), out_.layout)) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout must be the transpose of the input (",
               in_.layout.ToString(), " -> ", out_.layout.ToString(), ")"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    TaskFrame frame;
    frame.name = StrCat(name_, "/t", built.spec.tasks.size());
    const size_t in_matrix = frame.Matrix(in_.name);
    for (const TileId& id : group) {
      // Input tile (j,i) has the transposed shape of output (i,j), which
      // is the same serialized size.
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      frame.Read(in_matrix, TileId{id.col, id.row}, bytes);
      frame.cpu_seconds_ref += ctx.cost->TransposeSeconds(
          lc.TileRowsAt(id.row) * lc.TileColsAt(id.col));
      frame.outputs.push_back(TileOutput{out_.name, id, bytes});
    }
    if (ctx.attach_work) {
      frame.body = [in_name = in_.name, out_name = out_.name, lc,
                    group](TaskTileReader* reader, TileStore* store,
                           int machine, KernelMode) -> Status {
        for (const TileId& id : group) {
          CUMULON_ASSIGN_OR_RETURN(
              std::shared_ptr<const Tile> t,
              reader->Read(in_name, TileId{id.col, id.row}));
          Tile out_tile(lc.TileRowsAt(id.row), lc.TileColsAt(id.col));
          // Scratch covers the output tile plus the transient input tile.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * out_tile.MemoryBytes());
          CUMULON_RETURN_IF_ERROR(TransposeTile(*t, &out_tile));
          CUMULON_RETURN_IF_ERROR(
              store->Put(out_name, id,
                         std::make_shared<Tile>(std::move(out_tile)), machine));
        }
        return Status::OK();
      };
    }
    AddTask(ctx, std::move(frame), &built);
  }
  return built;
}

}  // namespace cumulon
