// RSVD-1 (the paper's running example): one randomized-SVD power-iteration
// step, Y = A A^T A Omega.
//
// Part 1 shows the logical optimizer's multiply-chain reordering, runs a
// small instance for real and verifies Y against the single-node
// interpreter on the naive chain: max |distributed - reference|, relative
// to the reference's largest entry, must stay below 1e-9 or the example
// exits 1. Part 2 asks the deployment optimizer to predict time/cost of a
// cloud-scale instance on several clusters — the workflow a Cumulon user
// follows before renting machines.

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "cumulon/cumulon.h"

namespace {

using namespace cumulon;  // NOLINT: example code

/// Returns whether Y matched the reference.
bool RunSmallForReal() {
  std::printf("== Part 1: real execution of a small RSVD-1 ==\n");
  RsvdSpec spec;
  spec.m = 128;
  spec.n = 96;
  spec.l = 8;

  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  Rng rng(1);
  std::map<std::string, TiledMatrix> bindings = {
      {"A", {"A", TileLayout::Square(spec.m, spec.n, 32)}},
      {"Omega", {"Omega", TileLayout::Square(spec.n, spec.l, 32)}},
  };
  for (const auto& [name, matrix] : bindings) {
    Status st = GenerateMatrix(matrix, FillKind::kGaussian, 0.0, &rng, &store);
    CUMULON_CHECK(st.ok()) << st;
  }

  Program naive = BuildRsvd1(spec);
  Program optimized = OptimizeProgram(naive);
  std::printf("naive chain flops:     %.3g\n",
              MatMulFlops(naive.assignments[0].expr));
  std::printf("optimized chain flops: %.3g\n",
              MatMulFlops(optimized.assignments[0].expr));

  LoweringOptions lowering;
  lowering.tile_dim = 32;
  auto lowered = Lower(optimized, bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});
  auto stats = executor.Run(lowered->plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  auto y = LoadDense(lowered->outputs.at("Y"), &store);
  CUMULON_CHECK(y.ok());
  std::printf("Y is %lld x %lld, ||Y||_F = %.4g (%d tasks, %zu jobs)\n",
              static_cast<long long>(y->rows()),
              static_cast<long long>(y->cols()), y->FrobeniusNorm(),
              stats->total_tasks, stats->jobs.size());

  // Verify against the single-node reference on the dense inputs.
  std::map<std::string, DenseMatrix> env;
  for (const auto& [name, matrix] : bindings) {
    auto dense = LoadDense(matrix, &store);
    CUMULON_CHECK(dense.ok()) << dense.status();
    env.emplace(name, std::move(dense).value());
  }
  auto reference = EvalProgram(naive, std::move(env));
  CUMULON_CHECK(reference.ok()) << reference.status();
  const DenseMatrix& y_ref = reference->at("Y");
  auto diff = y_ref.MaxAbsDiff(*y);
  CUMULON_CHECK(diff.ok()) << diff.status();
  // max |reference|, as the distance from the zero matrix.
  auto ref_max = y_ref.MaxAbsDiff(DenseMatrix(y_ref.rows(), y_ref.cols()));
  CUMULON_CHECK(ref_max.ok());
  const double rel_diff = diff.value() / ref_max.value();
  std::printf("max |distributed - reference| / max |reference| = %.2e\n\n",
              rel_diff);
  return rel_diff < 1e-9;
}

void PlanCloudScale() {
  std::printf("== Part 2: deployment planning for a cloud-scale RSVD-1 ==\n");
  RsvdSpec spec;
  spec.m = 1 << 17;  // 131072 x 16384 A: ~17 GB
  spec.n = 1 << 14;
  spec.l = 64;
  ProgramSpec program_spec;
  program_spec.program = OptimizeProgram(BuildRsvd1(spec));
  program_spec.inputs = {
      {"A", TileLayout::Square(spec.m, spec.n, 2048)},
      {"Omega", TileLayout::Square(spec.n, spec.l, 2048)},
  };

  PredictorOptions options;
  options.lowering.tile_dim = 2048;
  for (const char* machine_name : {"m1.small", "m1.xlarge", "c1.xlarge"}) {
    auto machine = FindMachine(machine_name);
    CUMULON_CHECK(machine.ok());
    for (int n : {4, 16, 64}) {
      ClusterConfig cluster{machine.value(), n, 2 * machine->cores};
      auto prediction = PredictProgram(program_spec, cluster, options);
      CUMULON_CHECK(prediction.ok()) << prediction.status();
      std::printf("  %-32s -> %10s  %s\n", cluster.ToString().c_str(),
                  FormatDuration(prediction->seconds).c_str(),
                  FormatMoney(prediction->dollars).c_str());
    }
  }
}

}  // namespace

int main() {
  const bool verified = RunSmallForReal();
  PlanCloudScale();
  return verified ? 0 : 1;
}
