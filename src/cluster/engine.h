#ifndef CUMULON_CLUSTER_ENGINE_H_
#define CUMULON_CLUSTER_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

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

/// The machine every task of `job` runs on, the one placement rule both
/// engines share. No machine takes more than max(ceil(tasks / machines),
/// slots_per_machine) tasks. With `use_preferences`, a maximum matching
/// (augmenting paths, tasks in index order, each task first trying its
/// least-loaded preferred machine with room) puts as many tasks as
/// possible on one of their preferred machines; out-of-range and duplicate
/// ids are ignored. Every other task goes, in index order, to the
/// least-loaded machine, ties to i % machines and then onward from it, so
/// a job without preferences is placed exactly round-robin.
std::vector<int> PlaceTasks(const JobSpec& job, int machines,
                            int slots_per_machine, bool use_preferences);

/// Whether `task` reads locally on `machine`: it prefers no machine, or
/// prefers this one.
inline bool RunsLocal(const Task& task, int machine) {
  const std::vector<int>& prefs = task.preferred_machines;
  return prefs.empty() ||
         std::find(prefs.begin(), prefs.end(), machine) != prefs.end();
}

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
