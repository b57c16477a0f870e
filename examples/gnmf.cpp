// GNMF: Gaussian non-negative matrix factorization via multiplicative
// updates, the iterative statistical workload family the paper targets.
// Runs several iterations for real on the simulated cluster through
// RunIterative and shows the reconstruction error decreasing
// monotonically.

#include <cstdio>
#include <map>

#include "cumulon/cumulon.h"

namespace {

using namespace cumulon;  // NOLINT: example code

double ReconstructionError(const DenseMatrix& v, const DenseMatrix& w,
                           const DenseMatrix& h) {
  auto wh = w.Multiply(h);
  CUMULON_CHECK(wh.ok());
  auto diff = v.Binary(BinaryOp::kSub, *wh);
  CUMULON_CHECK(diff.ok());
  return diff->FrobeniusNorm();
}

int RunGnmf() {
  GnmfSpec spec;
  spec.m = 96;
  spec.n = 64;
  spec.k = 8;
  const int64_t tile = 32;
  const int iterations = 5;

  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  Rng rng(3);

  // Positive data: V ~ U(0,1), factors start at U(0.1, 1).
  std::map<std::string, TiledMatrix> bindings = {
      {"V", {"V", TileLayout::Square(spec.m, spec.n, tile)}},
      {"W", {"W", TileLayout::Square(spec.m, spec.k, tile)}},
      {"H", {"H", TileLayout::Square(spec.k, spec.n, tile)}},
  };
  CUMULON_CHECK(GenerateMatrix(bindings.at("V"), FillKind::kUniform, 0.0,
                               &rng, &store).ok());
  CUMULON_CHECK(GenerateMatrix(bindings.at("W"), FillKind::kUniform, 0.0,
                               &rng, &store).ok());
  CUMULON_CHECK(GenerateMatrix(bindings.at("H"), FillKind::kUniform, 0.0,
                               &rng, &store).ok());

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});

  auto dv = LoadDense(bindings.at("V"), &store);
  CUMULON_CHECK(dv.ok());

  // The predicate only reports: it prints each iteration's error, checks
  // that the objective did not rise, and never stops the run early.
  double previous_error = 1e300;
  IterativeRunOptions run;
  run.lowering.tile_dim = tile;
  run.max_iterations = iterations;
  run.converged = [&](const IterationState& state) -> Result<bool> {
    CUMULON_ASSIGN_OR_RETURN(DenseMatrix dw,
                             LoadDense(state.bindings->at("W"), &store));
    CUMULON_ASSIGN_OR_RETURN(DenseMatrix dh,
                             LoadDense(state.bindings->at("H"), &store));
    const double error = ReconstructionError(*dv, dw, dh);
    std::printf("iter %d: ||V - W H||_F = %.6f\n", state.iteration + 1,
                error);
    CUMULON_CHECK(error <= previous_error + 1e-9)
        << "multiplicative updates must not increase the objective";
    previous_error = error;
    return false;
  };
  auto result =
      RunIterative(BuildGnmfIteration(spec), bindings, &executor, run);
  CUMULON_CHECK(result.ok()) << result.status();
  CUMULON_CHECK_EQ(result->iterations, iterations);
  std::printf("GNMF converged monotonically over %d iterations.\n",
              iterations);
  return 0;
}

}  // namespace

int main() { return RunGnmf(); }
