#ifndef CUMULON_CLUSTER_ENGINE_H_
#define CUMULON_CLUSTER_ENGINE_H_

#include <cstdint>
#include <memory>

#include "cluster/cluster_config.h"
#include "cluster/task.h"
#include "common/result.h"
#include "dfs/tile_cache.h"

namespace cumulon {

/// Runs jobs on a (real or simulated) cluster. Implementations:
///  - SimEngine: discrete-event simulation with a virtual clock; durations
///    come from TaskCost + the machine profile (the paper's simulation
///    technique, also used as the optimizer's time predictor).
///  - RealEngine: executes task closures on a thread pool and measures
///    wall-clock time (used for correctness tests and model validation).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual Result<JobStats> RunJob(const JobSpec& job) = 0;

  virtual const ClusterConfig& config() const = 0;

  /// Per-machine tile caches owned by this engine, or nullptr when node-
  /// local caching is disabled. The real engine's caches hold actual tiles
  /// (attach them to the DfsTileStore); the sim engine's exist so the cost
  /// model reads the byte budget the cluster would really have.
  virtual TileCacheGroup* tile_caches() const { return nullptr; }
};

/// The per-machine tile caches of an engine with node caching on:
/// `bytes_per_node` each when > 0 (tests and benches), else the machine's
/// NodeTileCacheBudget.
inline std::unique_ptr<TileCacheGroup> MakeNodeTileCaches(
    const ClusterConfig& config, int64_t bytes_per_node) {
  return std::make_unique<TileCacheGroup>(
      config.num_machines,
      bytes_per_node > 0 ? bytes_per_node
                         : NodeTileCacheBudget(config.machine.memory_bytes(),
                                               config.slots_per_machine));
}

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_ENGINE_H_
