#ifndef CUMULON_CLUSTER_REAL_ENGINE_H_
#define CUMULON_CLUSTER_REAL_ENGINE_H_

#include <memory>

#include "cluster/engine.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cumulon {

class RevocationController;  // cloud/revocation.h; borrowed by the engine

struct RealEngineOptions {
  /// Hadoop-style task retry: a failing task is re-attempted up to this
  /// many times before its error fails the job.
  int max_attempts = 1;

  /// Own a per-machine node-local tile cache (attach it to the DfsTileStore
  /// via AttachCaches to activate). Sized from the machine profile's memory
  /// minus the slots' task working sets, the same split the optimizer's
  /// memory-feasibility filter assumes.
  bool enable_tile_cache = false;

  /// Overrides the derived per-machine cache size when > 0 (tests/benches).
  int64_t cache_bytes_per_node = 0;

  /// Injects a transient-machine fault plan (cloud/revocation.h) on the
  /// controller's wall clock (armed at its first use). Workers refuse to
  /// start attempts on a revoked machine and, when a machine dies under a
  /// running attempt, count the elapsed time as waste and rerun the task on
  /// a surviving machine — revocation reruns do not burn failure retries.
  /// The dead node's tile cache is dropped and a zero-width "revoke" span
  /// plus cluster.revoked.* metrics record the loss, exactly once per
  /// machine across the controller's lifetime. Borrowed; null disables
  /// fault injection entirely.
  RevocationController* revocation = nullptr;

  /// Records one span per task, stamped from the wall-clock stopwatch
  /// (plus the tracer's running offset); the span's lane is the worker
  /// thread that ran the task. Borrowed; falls back to GlobalTracer()
  /// when null.
  Tracer* tracer = nullptr;

  /// Engine-level counters/histograms (engine.* names; see
  /// docs/observability.md). Borrowed; disabled when null.
  MetricsRegistry* metrics = nullptr;
};

/// Executes task closures for real and measures wall-clock time. Each task
/// runs on the machine PlaceTasks gives it, which puts tasks on the
/// machines holding their inputs where it can; that is also what makes the
/// per-node tile cache hit. Tasks run in index order on one FIFO pool of
/// machines x slots worker threads, the lanes the sim engine models; a
/// lane is not tied to a machine.
class RealEngine : public Engine {
 public:
  RealEngine(const ClusterConfig& config, const RealEngineOptions& options);

  Result<JobStats> RunJob(const JobSpec& job) override;

  const ClusterConfig& config() const override { return config_; }

  TileCacheGroup* tile_caches() const override { return caches_.get(); }

 private:
  ClusterConfig config_;
  RealEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TileCacheGroup> caches_;
};

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_REAL_ENGINE_H_
