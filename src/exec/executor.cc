#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"

namespace cumulon {

namespace {

/// Typed reason slug of a coverage failure (docs/observability.md).
constexpr char kCoverageReason[] = "verify.plan.coverage";

/// Exactly-once tile production, checked on the build about to run: per
/// output matrix, the job's task outputs must form a dense grid with no
/// tile produced twice and no gap, and every declared output must get
/// tiles. Only a bug in the job's own Build loops can fail it; the run
/// then stops before the job runs any task.
Status CheckTileCoverage(const PhysicalJob& job, const BuiltJob& built) {
  std::map<std::string, std::map<TileId, int>> produced;
  for (const std::vector<TileOutput>& outs : built.task_outputs) {
    for (const TileOutput& out : outs) ++produced[out.matrix][out.id];
  }
  std::vector<std::string> problems;
  for (const std::string& matrix : job.OutputMatrices()) {
    if (produced.count(matrix) == 0) {
      problems.push_back(StrCat("declares output '", matrix,
                              "' but produces no tiles for it"));
    }
  }
  for (const auto& [matrix, tiles] : produced) {
    int64_t grid_rows = 0;
    int64_t grid_cols = 0;
    for (const auto& [id, count] : tiles) {
      grid_rows = std::max(grid_rows, id.row + 1);
      grid_cols = std::max(grid_cols, id.col + 1);
      if (id.row < 0 || id.col < 0) {
        problems.push_back(StrCat("tile (", id.row, ",", id.col, ") of '",
                                matrix, "' has a negative grid index"));
      } else if (count > 1) {
        problems.push_back(StrCat("tile (", id.row, ",", id.col, ") of '",
                                matrix, "' is produced ", count, " times"));
      }
    }
    if (static_cast<int64_t>(tiles.size()) >= grid_rows * grid_cols) continue;
    for (int64_t r = 0; r < grid_rows; ++r) {
      for (int64_t c = 0; c < grid_cols; ++c) {
        if (tiles.count(TileId{r, c}) == 0) {
          problems.push_back(StrCat("tile (", r, ",", c, ") of '", matrix,
                                  "' is never produced (grid ", grid_rows,
                                  "x", grid_cols, ")"));
        }
      }
    }
  }
  if (problems.empty()) return Status::OK();
  // A broken grid can miss thousands of tiles; name the first few.
  constexpr size_t kShown = 8;
  std::string msg = StrCat("[", kCoverageReason, "] job '", job.name(), "':");
  for (size_t i = 0; i < std::min(problems.size(), kShown); ++i) {
    msg = StrCat(msg, i == 0 ? " " : "; ", problems[i]);
  }
  if (problems.size() > kShown) {
    msg = StrCat(msg, " (+", problems.size() - kShown, " more)");
  }
  return Status::FailedPrecondition(std::move(msg));
}

}  // namespace

Executor::Executor(TileStore* store, Engine* engine,
                   const TileOpCostModel* cost, const ExecutorOptions& options)
    : store_(store),
      engine_(engine),
      cost_(cost),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &owned_metrics_) {
  CUMULON_CHECK(store_ != nullptr);
  CUMULON_CHECK(engine_ != nullptr);
  CUMULON_CHECK(cost_ != nullptr);
}

std::vector<int> Executor::JobLevels(const PhysicalPlan& plan) {
  // Producer of each matrix name. Names are unique per plan (lowering
  // versions reassigned targets), so one writer per matrix.
  std::map<std::string, size_t> producer;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    for (const std::string& out : plan.jobs[j]->OutputMatrices()) {
      producer.emplace(out, j);
    }
  }
  std::vector<int> levels(plan.jobs.size(), 0);
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    int level = 0;
    for (const std::string& in : plan.jobs[j]->InputMatrices()) {
      auto it = producer.find(in);
      // Plans are emitted in dependency order, so a producer later in the
      // list (a later version writer) is not a dependency of this job.
      if (it != producer.end() && it->second < j) {
        level = std::max(level, levels[it->second] + 1);
      }
    }
    levels[j] = level;
  }
  return levels;
}

Status Executor::DropTemporaries(const PhysicalPlan& plan) {
  if (!options_.drop_temporaries) return Status::OK();
  for (const std::string& temp : plan.temporaries) {
    CUMULON_RETURN_IF_ERROR(store_->DeleteMatrix(temp));
  }
  return Status::OK();
}

Status Executor::CheckCancelled() const {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(
        StrCat("plan '", options_.plan_tag, "' cancelled"));
  }
  return Status::OK();
}

void Executor::TagJobSpec(JobSpec* spec, int64_t trace_parent) const {
  spec->plan_id = options_.plan_id;
  spec->plan_tag = options_.plan_tag;
  spec->slot_share = options_.slot_share;
  spec->cancel = options_.cancel;
  spec->trace_parent_span = trace_parent;
}

Result<PlanStats> Executor::Run(const PhysicalPlan& plan) {
  const MetricsSnapshot before = metrics_->Snapshot();
  const TileCacheStats cache_before = engine_->tile_caches() != nullptr
                                          ? engine_->tile_caches()->TotalStats()
                                          : TileCacheStats{};
  // One memory-budget group per run: task closures capture a borrowed
  // pointer, and every closure has finished (the engine's completion
  // latch) before Run returns, so the group safely lives on this frame.
  // The engine's tile cache takes a standing reservation on every node
  // ledger up front — the cache enforces its own LRU cap, so charging its
  // full budget keeps the ledger an upper bound on the node's resident
  // bytes without per-insert accounting.
  std::unique_ptr<MemoryBudgetGroup> memory_budget;
  if (options_.real_mode && options_.memory_budget_bytes > 0) {
    const int64_t cache_reserve = CacheReserveBytes();
    if (cache_reserve >= options_.memory_budget_bytes) {
      return Status::InvalidArgument(StrCat(
          "memory_budget_bytes (", options_.memory_budget_bytes,
          ") does not cover the tile cache's per-node reservation (",
          cache_reserve, "); shrink the cache or raise the budget"));
    }
    memory_budget = std::make_unique<MemoryBudgetGroup>(
        engine_->config().num_machines, options_.memory_budget_bytes);
    for (int node = 0; node < memory_budget->num_nodes(); ++node) {
      CUMULON_CHECK(memory_budget->node(node)->TryAcquire(cache_reserve));
    }
  }
  CUMULON_ASSIGN_OR_RETURN(PlanStats stats,
                           RunRounds(plan, memory_budget.get()));
  if (TileCacheGroup* caches = engine_->tile_caches()) {
    const TileCacheStats totals = caches->TotalStats();
    metrics_->counter("cache.rejected")
        ->Add(totals.rejections - cache_before.rejections);
    metrics_->gauge("cache.resident_bytes")->Set(totals.resident_bytes);
    metrics_->gauge("cache.resident_tiles")->Set(totals.resident_tiles);
  }
  if (memory_budget != nullptr) {
    // The group served this run alone, so its totals are the run's exact
    // spill figures.
    const MemoryBudget::Counters spill = memory_budget->TotalCounters();
    stats.spill_evictions = spill.evictions;
    stats.spill_evicted_bytes = spill.evicted_bytes;
    stats.spill_refetches = spill.refetches;
    stats.spill_refetch_bytes = spill.refetch_bytes;
    stats.spill_unpinned_reads = spill.unpinned_reads;
    // Spill counters appear only when the run actually streamed under
    // budget pressure, so unbudgeted runs keep their exact historical
    // metric set.
    if (spill.evictions > 0 || spill.refetches > 0 ||
        spill.unpinned_reads > 0) {
      metrics_->counter("exec.spill.evictions")->Add(spill.evictions);
      metrics_->counter("exec.spill.bytes")->Add(spill.evicted_bytes);
      metrics_->counter("exec.spill.refetches")->Add(spill.refetches);
      metrics_->counter("exec.spill.refetch_bytes")->Add(spill.refetch_bytes);
      metrics_->counter("exec.spill.unpinned")->Add(spill.unpinned_reads);
    }
    stats.memory_peak_bytes = memory_budget->MaxPeakBytes();
    metrics_->gauge("mem.budget.bytes")
        ->Set(options_.memory_budget_bytes);
    metrics_->gauge("mem.budget.peak_bytes")->Set(stats.memory_peak_bytes);
    metrics_->gauge("mem.budget.cache_reserved_bytes")
        ->Set(CacheReserveBytes());
  }
  stats.metrics = SnapshotDelta(before, metrics_->Snapshot());
  return stats;
}

int64_t Executor::CacheReserveBytes() const {
  TileCacheGroup* caches = engine_->tile_caches();
  return caches != nullptr ? caches->bytes_per_node() : 0;
}

BuildContext Executor::MakeBuildContext(
    MemoryBudgetGroup* memory_budget) const {
  BuildContext ctx;
  ctx.store = store_;
  ctx.cost = cost_;
  ctx.attach_work = options_.real_mode;
  ctx.kernel_mode = options_.kernel_mode;
  if (options_.real_mode) {
    ctx.prefetch_budget_bytes = options_.prefetch_budget_bytes;
  }
  if (TileCacheGroup* caches = engine_->tile_caches()) {
    ctx.node_cache_bytes = caches->bytes_per_node();
    ctx.cache_nodes = engine_->config().num_machines;
  }
  ctx.total_slots = engine_->config().total_slots();
  // task_pin_bytes feeds two consumers: real-mode task readers pin against
  // it, and the declared-cost streaming term predicts refetch reads from it
  // — so it is derived from the budget in both modes, while the ledger
  // group itself exists only in real mode.
  if (options_.memory_budget_bytes > 0) {
    const int slots = std::max(engine_->config().slots_per_machine, 1);
    ctx.task_pin_bytes = std::max<int64_t>(
        (options_.memory_budget_bytes - CacheReserveBytes()) / slots, 0);
  }
  ctx.memory_budget = memory_budget;
  return ctx;
}

Executor::JobTraceScope Executor::BeginJobTrace(
    const std::string& name) const {
  JobTraceScope scope;
  scope.tracer =
      options_.tracer != nullptr ? options_.tracer : GlobalTracer();
  if (scope.tracer == nullptr) return scope;
  // Concurrent plans render on one driver lane each, keyed by plan id;
  // serial runs keep the classic lane 0.
  const int lane =
      options_.plan_id > 0 ? static_cast<int>(options_.plan_id) : 0;
  // Sim mode charges every job a scheduling/setup latency before any task
  // starts; putting it on the timeline keeps the trace's total span equal
  // to the predicted plan time. Real mode never waits it out, so its
  // timeline carries only measured execution.
  if (!options_.real_mode && options_.job_startup_seconds > 0.0) {
    TraceSpan startup;
    startup.name = options_.plan_tag.empty()
                       ? std::string("job startup")
                       : StrCat(options_.plan_tag, "/job startup");
    startup.category = "startup";
    startup.parent_id = -1;  // never under another plan's open job
    startup.machine = -1;
    startup.slot = lane;
    startup.start_seconds = scope.tracer->time_offset();
    startup.duration_seconds = options_.job_startup_seconds;
    scope.tracer->AdvanceTime(options_.job_startup_seconds);
    scope.tracer->AddSpan(std::move(startup));
  }
  scope.job_id = scope.tracer->BeginJob(
      options_.plan_tag.empty() ? name : StrCat(options_.plan_tag, "/", name),
      lane);
  scope.offset_before = scope.tracer->time_offset();
  return scope;
}

void Executor::EndJobTrace(const JobTraceScope& scope,
                           const JobStats& stats) const {
  if (scope.tracer == nullptr) return;
  if (scope.tracer->time_offset() <= scope.offset_before) {
    scope.tracer->AdvanceTime(stats.duration_seconds);
  }
  scope.tracer->EndJob(scope.job_id);
}

void Executor::FoldJobStats(const std::string& name, JobStats stats,
                            PlanStats* totals) {
  totals->total_seconds +=
      stats.duration_seconds + options_.job_startup_seconds;
  totals->bytes_read += stats.bytes_read;
  totals->bytes_written += stats.bytes_written;
  totals->total_tasks += stats.num_tasks;
  totals->non_local_tasks += stats.num_non_local_tasks;
  totals->cache_hits += stats.cache_hits;
  totals->cache_misses += stats.cache_misses;
  totals->bytes_read_cached += stats.bytes_read_cached;
  totals->stall_seconds += stats.stall_seconds;
  totals->revoked_machines += stats.revoked_machines;
  totals->rescheduled_tasks += stats.rescheduled_tasks;
  totals->revoked_wasted_seconds += stats.revoked_wasted_seconds;

  metrics_->counter("exec.jobs")->Increment();
  metrics_->counter("exec.tasks")->Add(stats.num_tasks);
  metrics_->counter("exec.tasks.nonlocal")->Add(stats.num_non_local_tasks);
  metrics_->counter("exec.bytes.read")->Add(stats.bytes_read);
  metrics_->counter("exec.bytes.written")->Add(stats.bytes_written);
  metrics_->counter("exec.bytes.shuffle")->Add(stats.shuffle_bytes);
  metrics_->counter("exec.cache.hits")->Add(stats.cache_hits);
  metrics_->counter("exec.cache.misses")->Add(stats.cache_misses);
  metrics_->counter("exec.cache.hit_bytes")->Add(stats.bytes_read_cached);

  totals->jobs.push_back(JobRecord{name, std::move(stats)});
}

void Executor::RecordCacheActivity(const TileCacheStats& before,
                                   JobStats* stats) const {
  TileCacheGroup* caches = engine_->tile_caches();
  if (caches == nullptr) return;
  const TileCacheStats after = caches->TotalStats();
  stats->cache_hits = after.hits - before.hits;
  stats->cache_misses = after.misses - before.misses;
  if (options_.real_mode) {
    // Sim-mode cached bytes come from the declared task costs; real-mode
    // ones are measured at the cache.
    stats->bytes_read_cached = after.hit_bytes - before.hit_bytes;
  }
}

Result<PlanStats> Executor::RunRounds(const PhysicalPlan& plan,
                                      MemoryBudgetGroup* memory_budget) {
  const BuildContext ctx = MakeBuildContext(memory_budget);

  // Job indices of each scheduling round. Merging a dependency level's
  // independent jobs into one round lets their tasks share the cluster's
  // slots, which is how concurrently submitted Hadoop jobs behave. Every
  // level below the deepest holds at least one job.
  std::vector<std::vector<size_t>> rounds;
  if (options_.parallelize_independent_jobs) {
    const std::vector<int> levels = JobLevels(plan);
    for (size_t j = 0; j < plan.jobs.size(); ++j) {
      const size_t level = static_cast<size_t>(levels[j]);
      if (rounds.size() <= level) rounds.resize(level + 1);
      rounds[level].push_back(j);
    }
  } else {
    for (size_t j = 0; j < plan.jobs.size(); ++j) rounds.push_back({j});
  }

  PlanStats totals;
  for (size_t r = 0; r < rounds.size(); ++r) {
    CUMULON_RETURN_IF_ERROR(CheckCancelled());
    // A round's tasks run as one engine job. A one-job round keeps the
    // job's own name; a merged round is named levelN(a+b). Each job's
    // build is checked before any task of the round runs.
    JobSpec spec;
    std::vector<std::vector<TileOutput>> task_outputs;
    std::string joined;
    for (size_t j : rounds[r]) {
      CUMULON_ASSIGN_OR_RETURN(BuiltJob built, plan.jobs[j]->Build(ctx));
      CUMULON_RETURN_IF_ERROR(CheckTileCoverage(*plan.jobs[j], built));
      for (Task& task : built.spec.tasks) {
        spec.tasks.push_back(std::move(task));
      }
      for (auto& outs : built.task_outputs) {
        task_outputs.push_back(std::move(outs));
      }
      if (!joined.empty()) joined += "+";
      joined += plan.jobs[j]->name();
    }
    const std::string name = rounds[r].size() == 1
                                 ? joined
                                 : StrCat("level", r, "(", joined, ")");
    spec.name = name;

    const TileCacheStats cache_before =
        engine_->tile_caches() != nullptr ? engine_->tile_caches()->TotalStats()
                                          : TileCacheStats{};
    const JobTraceScope trace = BeginJobTrace(name);
    TagJobSpec(&spec, trace.job_id);
    CUMULON_ASSIGN_OR_RETURN(JobStats stats, engine_->RunJob(spec));
    EndJobTrace(trace, stats);
    RecordCacheActivity(cache_before, &stats);

    if (!options_.real_mode) {
      // Register output tile placement so later jobs get correct locality.
      CUMULON_CHECK_EQ(task_outputs.size(), stats.task_runs.size());
      for (size_t t = 0; t < task_outputs.size(); ++t) {
        const int machine = stats.task_runs[t].machine;
        for (const TileOutput& out : task_outputs[t]) {
          CUMULON_RETURN_IF_ERROR(
              store_->PutMeta(out.matrix, out.id, out.bytes, machine));
        }
      }
    }

    FoldJobStats(name, std::move(stats), &totals);
  }

  CUMULON_RETURN_IF_ERROR(DropTemporaries(plan));
  return totals;
}

}  // namespace cumulon
