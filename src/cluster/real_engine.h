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
  /// Caps the worker-thread count regardless of the configured slots, so
  /// large simulated clusters can still be "really" executed on a small
  /// host. 0 = use config.total_slots().
  int max_threads = 0;

  /// Hadoop-style task retry: a failing task is re-attempted up to this
  /// many times before its error fails the job.
  int max_attempts = 1;

  /// Place tasks that declare preferred_machines (DFS replica holders) on
  /// one of those machines when it still has spare capacity this job,
  /// instead of blind round-robin — the real-engine analogue of the sim
  /// engine's delay scheduling. Tasks without preferences keep the exact
  /// round-robin assignment. Also what makes the per-node tile cache hit:
  /// tasks sharing inputs land on the same machines.
  bool locality_aware = true;

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

/// Executes task closures for real on a thread pool and measures wall-clock
/// time. Tasks preferring the machines that hold their inputs are placed
/// there while capacity lasts (see RealEngineOptions::locality_aware);
/// everything else goes to the least-loaded machine, round-robin among
/// equals, so no machine takes more than its share of a job and the DFS
/// locality accounting still sees a spread of reader/writer nodes.
class RealEngine : public Engine {
 public:
  RealEngine(const ClusterConfig& config, const RealEngineOptions& options);

  Result<JobStats> RunJob(const JobSpec& job) override;

  const ClusterConfig& config() const override { return config_; }

  TileCacheGroup* tile_caches() const override { return caches_.get(); }

 private:
  /// Greedy placement of every task of `job`: preferred machines first
  /// (least-loaded, capped at a balanced share), then the least-loaded
  /// machine, ties broken round-robin.
  std::vector<int> PlaceTasks(const JobSpec& job) const;

  ClusterConfig config_;
  RealEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<TileCacheGroup> caches_;
};

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_REAL_ENGINE_H_
