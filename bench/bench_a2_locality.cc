// A2 — ablation: locality-aware placement. With it, each task goes to a
// machine holding its input replicas while that machine is under its
// share of the job (PlaceTasks, the rule both engines use), and most reads
// are local disk. Without it (SimEngineOptions::locality_aware = false),
// tasks are placed round-robin and read their inputs over the network.
//
// Expectation: locality-aware placement cuts non-local tasks sharply and
// speeds up IO-bound jobs, and matters more when replication is scarce.

#include "bench/bench_util.h"

namespace cumulon::bench {
namespace {

struct Outcome {
  double seconds;
  int non_local;
  int tasks;
};

Outcome RunOnce(bool locality_aware, int replication) {
  auto machine = FindMachine("m1.large");
  CUMULON_CHECK(machine.ok());
  ClusterConfig cluster{machine.value(), 16, 2};

  DfsOptions dfs_options;
  dfs_options.num_nodes = cluster.num_machines;
  dfs_options.replication = replication;
  dfs_options.seed = 4;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);

  // IO-bound workload: a scan-transform over a 32 GiB matrix. Reads
  // dominate, so where a task runs (local disk vs network) sets its speed.
  TiledMatrix a = Square("A", 65536, 2048);
  for (int64_t r = 0; r < a.layout.grid_rows(); ++r) {
    for (int64_t c = 0; c < a.layout.grid_cols(); ++c) {
      CUMULON_CHECK(store.PutMeta(a.name, TileId{r, c},
                                  16 + 2048 * 2048 * 8, -1).ok());
    }
  }

  SimEngineOptions sim_options;
  sim_options.locality_aware = locality_aware;
  sim_options.replication = replication;
  SimEngine engine(cluster, sim_options);
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.real_mode = false;
  Executor executor(&store, &engine, &cost, exec_options);

  TiledMatrix out = Square("B", 65536, 2048);
  PhysicalPlan plan;
  CUMULON_CHECK(AddEwChain(a, out, {EwStep::Unary(UnaryOp::kSqrt)}, &plan,
                           /*tiles_per_task=*/4).ok());
  auto stats = executor.Run(plan);
  CUMULON_CHECK(stats.ok()) << stats.status();
  return {stats->total_seconds, stats->non_local_tasks, stats->total_tasks};
}

void Run() {
  PrintHeader("A2: locality-aware scheduling ablation (16 x m1.large)");
  std::printf("%-6s %-12s %10s %12s %12s\n", "repl", "scheduling",
              "time", "non-local", "tasks");
  PrintRule();
  for (int repl : {1, 3}) {
    for (bool aware : {true, false}) {
      Outcome o = RunOnce(aware, repl);
      std::printf("%-6d %-12s %10s %7d/%-4d %12s\n", repl,
                  aware ? "locality" : "off",
                  FormatDuration(o.seconds).c_str(), o.non_local, o.tasks,
                  "");
    }
  }
}

}  // namespace
}  // namespace cumulon::bench

int main(int argc, char** argv) {
  cumulon::bench::ObsSession obs(argc, argv);
  cumulon::bench::Run();
  return 0;
}
