#include "baseline/mr_matmul.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "exec/physical_job.h"

namespace cumulon {

namespace {

int64_t TileBytes(const TileLayout& layout, int64_t gr, int64_t gc) {
  return 16 + layout.TileRowsAt(gr) * layout.TileColsAt(gc) * 8;
}

// Task granularity of the Hadoop jobs: input tiles per map task, output
// tiles per reduce task (RMM's reducers and CPMM's summing job), and k
// blocks per CPMM job-1 reducer.
constexpr int64_t kTilesPerMapTask = 8;
constexpr int64_t kCTilesPerReduceTask = 1;
constexpr int64_t kKPerReduceTask = 1;

// Sort/merge CPU on the reference machine: 0.02 s per shuffled MB, for the
// map and the reduce side of a Hadoop shuffle sort together.
double SortCpu(int64_t bytes) { return 0.02 * bytes / 1e6; }

Status ValidateShapes(const TiledMatrix& a, const TiledMatrix& b,
                      const TiledMatrix& out) {
  if (a.layout.cols() != b.layout.rows() ||
      a.layout.tile_cols() != b.layout.tile_rows()) {
    return Status::InvalidArgument(
        StrCat("MR multiply shape/tiling mismatch: ", a.layout.ToString(),
               " * ", b.layout.ToString()));
  }
  if (out.layout.rows() != a.layout.rows() ||
      out.layout.cols() != b.layout.cols() ||
      out.layout.tile_rows() != a.layout.tile_rows() ||
      out.layout.tile_cols() != b.layout.tile_cols()) {
    return Status::InvalidArgument(
        StrCat("MR multiply output layout mismatch: ", out.layout.ToString()));
  }
  return Status::OK();
}

/// Registers output tile placement after a simulated job so later phases
/// see correct locality.
Status RegisterOutputs(TileStore* store,
                       const std::vector<std::vector<TileOutput>>& outputs,
                       const JobStats& stats) {
  CUMULON_CHECK_EQ(outputs.size(), stats.task_runs.size());
  for (size_t t = 0; t < outputs.size(); ++t) {
    for (const TileOutput& out : outputs[t]) {
      CUMULON_RETURN_IF_ERROR(store->PutMeta(out.matrix, out.id, out.bytes,
                                             stats.task_runs[t].machine));
    }
  }
  return Status::OK();
}

void Accumulate(const JobStats& stats, MrRunStats* totals) {
  totals->total_seconds += stats.duration_seconds;
  totals->num_tasks += stats.num_tasks;
  totals->bytes_read += stats.bytes_read;
  totals->bytes_written += stats.bytes_written;
  totals->shuffle_bytes += stats.shuffle_bytes;
}

/// Map phase over the tiles of one or two matrices: reads each tile from
/// the DFS and spills `replication_factor` copies of it as map output.
/// Pure cost: mappers do no real computation (reducers read the store
/// directly in real mode).
JobSpec BuildMapPhase(const std::string& job_name, const TiledMatrix& m1,
                      int64_t replication1, const TiledMatrix* m2,
                      int64_t replication2, TileStore* store) {
  JobSpec job;
  job.name = job_name;
  struct Item {
    const TiledMatrix* m;
    TileId id;
    int64_t repl;
  };
  std::vector<Item> items;
  for (int64_t r = 0; r < m1.layout.grid_rows(); ++r) {
    for (int64_t c = 0; c < m1.layout.grid_cols(); ++c) {
      items.push_back({&m1, TileId{r, c}, replication1});
    }
  }
  if (m2 != nullptr) {
    for (int64_t r = 0; r < m2->layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < m2->layout.grid_cols(); ++c) {
        items.push_back({m2, TileId{r, c}, replication2});
      }
    }
  }
  const int64_t per_task = kTilesPerMapTask;
  for (size_t base = 0; base < items.size();
       base += static_cast<size_t>(per_task)) {
    Task task;
    task.name = StrCat(job_name, "/map", base / per_task);
    const size_t end = std::min(items.size(), base + per_task);
    for (size_t i = base; i < end; ++i) {
      const Item& item = items[i];
      const int64_t bytes =
          TileBytes(item.m->layout, item.id.row, item.id.col);
      task.cost.bytes_read += bytes;
      task.cost.local_spill_bytes += bytes * item.repl;
      task.cost.cpu_seconds_ref += SortCpu(bytes * item.repl);
    }
    task.preferred_machines =
        store->PreferredNodes(items[base].m->name, items[base].id);
    job.tasks.push_back(std::move(task));
  }
  return job;
}

}  // namespace

const char* MrStrategyName(MrStrategy s) {
  switch (s) {
    case MrStrategy::kRmm:
      return "RMM";
    case MrStrategy::kCpmm:
      return "CPMM";
  }
  return "?";
}

namespace {

Result<MrRunStats> RunRmm(const TiledMatrix& a, const TiledMatrix& b,
                          const TiledMatrix& out, TileStore* store,
                          Engine* engine, const TileOpCostModel& cost,
                          const MrOptions& options) {
  const int64_t gi = a.layout.grid_rows();
  const int64_t gj = b.layout.grid_cols();
  const int64_t gk = a.layout.grid_cols();
  MrRunStats totals;

  // Map phase: A tiles fan out to all gj reducer columns, B tiles to all
  // gi reducer rows.
  JobSpec map_job =
      BuildMapPhase(StrCat("rmm_map_", out.name), a, gj, &b, gi, store);
  CUMULON_ASSIGN_OR_RETURN(JobStats map_stats, engine->RunJob(map_job));
  Accumulate(map_stats, &totals);
  totals.num_jobs = 1;

  // Reduce phase: reducer for C(i,j) pulls A(i,*) and B(*,j) over the
  // shuffle and folds k.
  JobSpec reduce_job;
  reduce_job.name = StrCat("rmm_reduce_", out.name);
  std::vector<std::vector<TileOutput>> outputs;
  const int64_t per_task = kCTilesPerReduceTask;
  std::vector<TileId> c_tiles;
  for (int64_t i = 0; i < gi; ++i) {
    for (int64_t j = 0; j < gj; ++j) c_tiles.push_back(TileId{i, j});
  }
  for (size_t base = 0; base < c_tiles.size();
       base += static_cast<size_t>(per_task)) {
    Task task;
    task.name = StrCat(reduce_job.name, "/r", base / per_task);
    std::vector<TileOutput> task_outs;
    const size_t end = std::min(c_tiles.size(), base + per_task);
    std::vector<TileId> group(c_tiles.begin() + base, c_tiles.begin() + end);
    for (const TileId& id : group) {
      int64_t in_bytes = 0;
      for (int64_t k = 0; k < gk; ++k) {
        in_bytes += TileBytes(a.layout, id.row, k);
        in_bytes += TileBytes(b.layout, k, id.col);
        task.cost.cpu_seconds_ref += cost.GemmSeconds(
            out.layout.TileRowsAt(id.row), out.layout.TileColsAt(id.col),
            a.layout.TileColsAt(k));
      }
      task.cost.shuffle_bytes += in_bytes;
      task.cost.cpu_seconds_ref += SortCpu(in_bytes);
      const int64_t out_bytes = TileBytes(out.layout, id.row, id.col);
      task.cost.bytes_written += out_bytes;
      task_outs.push_back(TileOutput{out.name, id, out_bytes});
    }
    if (options.real_mode) {
      const TiledMatrix av = a, bv = b, outv = out;
      task.work = [store, av, bv, outv, group, gk](int machine) -> Status {
        for (const TileId& id : group) {
          Tile acc(outv.layout.TileRowsAt(id.row),
                   outv.layout.TileColsAt(id.col));
          for (int64_t k = 0; k < gk; ++k) {
            CUMULON_ASSIGN_OR_RETURN(
                std::shared_ptr<const Tile> ta,
                store->Get(av.name, TileId{id.row, k}, machine));
            CUMULON_ASSIGN_OR_RETURN(
                std::shared_ptr<const Tile> tb,
                store->Get(bv.name, TileId{k, id.col}, machine));
            CUMULON_RETURN_IF_ERROR(Gemm(*ta, *tb, 1.0, 1.0, &acc));
          }
          CUMULON_RETURN_IF_ERROR(
              store->Put(outv.name, id, std::make_shared<Tile>(std::move(acc)),
                         machine));
        }
        return Status::OK();
      };
    }
    reduce_job.tasks.push_back(std::move(task));
    outputs.push_back(std::move(task_outs));
  }
  CUMULON_ASSIGN_OR_RETURN(JobStats reduce_stats, engine->RunJob(reduce_job));
  Accumulate(reduce_stats, &totals);
  if (!options.real_mode) {
    CUMULON_RETURN_IF_ERROR(RegisterOutputs(store, outputs, reduce_stats));
  }
  totals.total_seconds += options.job_startup_seconds;  // one MR job
  return totals;
}

Result<MrRunStats> RunCpmm(const TiledMatrix& a, const TiledMatrix& b,
                           const TiledMatrix& out, TileStore* store,
                           Engine* engine, const TileOpCostModel& cost,
                           const MrOptions& options) {
  const int64_t gi = a.layout.grid_rows();
  const int64_t gj = b.layout.grid_cols();
  const int64_t gk = a.layout.grid_cols();
  MrRunStats totals;
  totals.num_jobs = 2;

  auto partial_name = [&](int64_t k) {
    return StrCat(out.name, "#cpmm_", k);
  };

  // ---- MR job 1: group by k, emit full partial products C^(k). ----
  JobSpec map1 = BuildMapPhase(StrCat("cpmm_map1_", out.name), a, 1, &b, 1,
                               store);
  CUMULON_ASSIGN_OR_RETURN(JobStats map1_stats, engine->RunJob(map1));
  Accumulate(map1_stats, &totals);

  JobSpec reduce1;
  reduce1.name = StrCat("cpmm_reduce1_", out.name);
  std::vector<std::vector<TileOutput>> outputs1;
  const int64_t k_per_task = kKPerReduceTask;
  for (int64_t k0 = 0; k0 < gk; k0 += k_per_task) {
    const int64_t k1 = std::min(k0 + k_per_task, gk);
    Task task;
    task.name = StrCat(reduce1.name, "/r", k0);
    std::vector<TileOutput> task_outs;
    for (int64_t k = k0; k < k1; ++k) {
      int64_t in_bytes = 0;
      for (int64_t i = 0; i < gi; ++i) in_bytes += TileBytes(a.layout, i, k);
      for (int64_t j = 0; j < gj; ++j) in_bytes += TileBytes(b.layout, k, j);
      task.cost.shuffle_bytes += in_bytes;
      task.cost.cpu_seconds_ref += SortCpu(in_bytes);
      for (int64_t i = 0; i < gi; ++i) {
        for (int64_t j = 0; j < gj; ++j) {
          task.cost.cpu_seconds_ref += cost.GemmSeconds(
              out.layout.TileRowsAt(i), out.layout.TileColsAt(j),
              a.layout.TileColsAt(k));
          const int64_t out_bytes = TileBytes(out.layout, i, j);
          task.cost.bytes_written += out_bytes;
          task_outs.push_back(
              TileOutput{partial_name(k), TileId{i, j}, out_bytes});
        }
      }
    }
    if (options.real_mode) {
      const TiledMatrix av = a, bv = b, outv = out;
      const std::string out_name = out.name;
      task.work = [store, av, bv, outv, out_name, k0, k1, gi,
                   gj](int machine) -> Status {
        for (int64_t k = k0; k < k1; ++k) {
          for (int64_t i = 0; i < gi; ++i) {
            CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> ta,
                                     store->Get(av.name, TileId{i, k},
                                                machine));
            for (int64_t j = 0; j < gj; ++j) {
              CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> tb,
                                       store->Get(bv.name, TileId{k, j},
                                                  machine));
              Tile part(outv.layout.TileRowsAt(i), outv.layout.TileColsAt(j));
              CUMULON_RETURN_IF_ERROR(Gemm(*ta, *tb, 1.0, 0.0, &part));
              CUMULON_RETURN_IF_ERROR(store->Put(
                  StrCat(out_name, "#cpmm_", k), TileId{i, j},
                  std::make_shared<Tile>(std::move(part)), machine));
            }
          }
        }
        return Status::OK();
      };
    }
    reduce1.tasks.push_back(std::move(task));
    outputs1.push_back(std::move(task_outs));
  }
  CUMULON_ASSIGN_OR_RETURN(JobStats reduce1_stats, engine->RunJob(reduce1));
  Accumulate(reduce1_stats, &totals);
  if (!options.real_mode) {
    CUMULON_RETURN_IF_ERROR(RegisterOutputs(store, outputs1, reduce1_stats));
  }

  // ---- MR job 2: sum the partials per C tile. ----
  // Map side reads each partial tile (with locality) and spills it once.
  JobSpec map2;
  map2.name = StrCat("cpmm_map2_", out.name);
  {
    std::vector<TileId> tiles;
    for (int64_t i = 0; i < gi; ++i) {
      for (int64_t j = 0; j < gj; ++j) tiles.push_back(TileId{i, j});
    }
    // One map task per partial-k over a stripe of tiles.
    const int64_t per_task = kTilesPerMapTask;
    for (int64_t k = 0; k < gk; ++k) {
      for (size_t base = 0; base < tiles.size();
           base += static_cast<size_t>(per_task)) {
        Task task;
        task.name = StrCat(map2.name, "/m", k, "_", base);
        const size_t end = std::min(tiles.size(), base + per_task);
        for (size_t t = base; t < end; ++t) {
          const int64_t bytes =
              TileBytes(out.layout, tiles[t].row, tiles[t].col);
          task.cost.bytes_read += bytes;
          task.cost.local_spill_bytes += bytes;
          task.cost.cpu_seconds_ref += SortCpu(bytes);
        }
        task.preferred_machines =
            store->PreferredNodes(partial_name(k), tiles[base]);
        map2.tasks.push_back(std::move(task));
      }
    }
  }
  CUMULON_ASSIGN_OR_RETURN(JobStats map2_stats, engine->RunJob(map2));
  Accumulate(map2_stats, &totals);

  JobSpec reduce2;
  reduce2.name = StrCat("cpmm_reduce2_", out.name);
  std::vector<std::vector<TileOutput>> outputs2;
  {
    const int64_t per_task = kCTilesPerReduceTask;
    std::vector<TileId> tiles;
    for (int64_t i = 0; i < gi; ++i) {
      for (int64_t j = 0; j < gj; ++j) tiles.push_back(TileId{i, j});
    }
    for (size_t base = 0; base < tiles.size();
         base += static_cast<size_t>(per_task)) {
      Task task;
      task.name = StrCat(reduce2.name, "/r", base / per_task);
      std::vector<TileOutput> task_outs;
      const size_t end = std::min(tiles.size(), base + per_task);
      std::vector<TileId> group(tiles.begin() + base, tiles.begin() + end);
      for (const TileId& id : group) {
        const int64_t bytes = TileBytes(out.layout, id.row, id.col);
        task.cost.shuffle_bytes += bytes * gk;
        task.cost.cpu_seconds_ref +=
            SortCpu(bytes * gk) +
            gk * cost.AccumulateSeconds(out.layout.TileRowsAt(id.row) *
                                        out.layout.TileColsAt(id.col));
        task.cost.bytes_written += bytes;
        task_outs.push_back(TileOutput{out.name, id, bytes});
      }
      if (options.real_mode) {
        const TiledMatrix outv = out;
        const std::string out_name = out.name;
        task.work = [store, outv, out_name, group, gk](int machine) -> Status {
          for (const TileId& id : group) {
            Tile acc(outv.layout.TileRowsAt(id.row),
                     outv.layout.TileColsAt(id.col));
            for (int64_t k = 0; k < gk; ++k) {
              CUMULON_ASSIGN_OR_RETURN(
                  std::shared_ptr<const Tile> part,
                  store->Get(StrCat(out_name, "#cpmm_", k), id, machine));
              CUMULON_RETURN_IF_ERROR(AccumulateInto(*part, &acc));
            }
            CUMULON_RETURN_IF_ERROR(store->Put(
                out_name, id, std::make_shared<Tile>(std::move(acc)),
                machine));
          }
          return Status::OK();
        };
      }
      reduce2.tasks.push_back(std::move(task));
      outputs2.push_back(std::move(task_outs));
    }
  }
  CUMULON_ASSIGN_OR_RETURN(JobStats reduce2_stats, engine->RunJob(reduce2));
  Accumulate(reduce2_stats, &totals);
  if (!options.real_mode) {
    CUMULON_RETURN_IF_ERROR(RegisterOutputs(store, outputs2, reduce2_stats));
  }

  // Drop the partial products.
  for (int64_t k = 0; k < gk; ++k) {
    CUMULON_RETURN_IF_ERROR(store->DeleteMatrix(partial_name(k)));
  }

  totals.total_seconds += 2 * options.job_startup_seconds;
  return totals;
}

}  // namespace

Result<MrRunStats> RunMrMultiply(MrStrategy strategy, const TiledMatrix& a,
                                 const TiledMatrix& b, const TiledMatrix& out,
                                 TileStore* store, Engine* engine,
                                 const TileOpCostModel& cost,
                                 const MrOptions& options) {
  CUMULON_RETURN_IF_ERROR(ValidateShapes(a, b, out));
  switch (strategy) {
    case MrStrategy::kRmm:
      return RunRmm(a, b, out, store, engine, cost, options);
    case MrStrategy::kCpmm:
      return RunCpmm(a, b, out, store, engine, cost, options);
  }
  return Status::InvalidArgument("unknown MR strategy");
}

}  // namespace cumulon
