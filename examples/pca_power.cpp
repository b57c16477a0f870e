// PCA via power iteration: the statistics-pipeline example that exercises
// Cumulon's aggregation and broadcast operators together with multiplies.
//
//   1. mu  = col_sums(X) / n          (AggregateJob)
//   2. Xc  = X - mu                   (broadcast EwChainJob)
//   3. for k iterations: v = Xc^T (Xc v) / n          (fused multiplies)
//
// The iterate's direction converges to the dominant eigenvector while its
// length grows by about lambda/n per iteration; we report the Rayleigh
// quotient per iteration and verify the result against a single-node
// reference, relative to the reference's largest entry.

#include <cmath>
#include <cstdio>
#include <map>

#include "cumulon/cumulon.h"

namespace {

using namespace cumulon;  // NOLINT: example code

double RayleighQuotient(const DenseMatrix& xc, const DenseMatrix& v) {
  auto xv = xc.Multiply(v);
  CUMULON_CHECK(xv.ok());
  double numerator = 0.0;
  for (int64_t r = 0; r < xv->rows(); ++r) {
    numerator += xv->At(r, 0) * xv->At(r, 0);
  }
  double denominator = 0.0;
  for (int64_t r = 0; r < v.rows(); ++r) denominator += v.At(r, 0) * v.At(r, 0);
  return numerator / denominator;
}

int Run() {
  const int64_t n = 192, d = 96, tile = 32;
  const int iterations = 6;

  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  Rng rng(9);

  // Data with a planted dominant direction.
  DenseMatrix x(n, d);
  for (int64_t r = 0; r < n; ++r) {
    const double factor = rng.NextGaussian() * 3.0;
    for (int64_t c = 0; c < d; ++c) {
      const double planted = factor * std::sin(0.1 * c);
      x.Set(r, c, planted + rng.NextGaussian() * 0.5 + 2.0);
    }
  }
  std::map<std::string, TiledMatrix> bindings = {
      {"X", {"X", TileLayout::Square(n, d, tile)}},
      {"v", {"v", TileLayout::Square(d, 1, tile)}},
  };
  CUMULON_CHECK(StoreDense(x, bindings.at("X"), &store).ok());
  DenseMatrix v0 = DenseMatrix::Gaussian(d, 1, &rng);
  CUMULON_CHECK(StoreDense(v0, bindings.at("v"), &store).ok());

  // Step 1+2: standardize.
  Program prep;
  auto ex = Expr::Input("X", n, d);
  prep.Assign("mu", Scale(Expr::ColSums(ex), 1.0 / n));
  prep.Assign("Xc", ex - Expr::Input("mu", 1, d));
  // Step 3: unrolled power iterations on the covariance (implicitly
  // Xc^T Xc v, chain-ordered so no d x d matrix is ever materialized).
  Program body;
  auto exc = Expr::Input("Xc", n, d);
  auto ev = Expr::Input("v", d, 1);
  body.Assign("v", Scale(T(exc) * (exc * ev), 1.0 / n));
  Program program = prep;
  for (const Assignment& a : Repeat(body, iterations).assignments) {
    program.assignments.push_back(a);
  }

  LoweringOptions lowering;
  lowering.tile_dim = tile;
  auto lowered = Lower(OptimizeProgram(program), bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();
  std::printf("plan has %zu jobs for %d power iterations\n",
              lowered->plan.jobs.size(), iterations);

  RealEngine engine(ClusterConfig{MachineProfile{}, 3, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});
  auto stats = executor.Run(lowered->plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  // Verify against the single-node reference.
  DenseMatrix mu = x.ColSums().Unary(UnaryOp::kScale, 1.0 / n);
  auto xc = x.Broadcast(BinaryOp::kSub, mu, true);
  CUMULON_CHECK(xc.ok());
  DenseMatrix v_ref = v0;
  for (int i = 0; i < iterations; ++i) {
    auto xv = xc->Multiply(v_ref);
    auto next = xc->Transpose().Multiply(*xv);
    CUMULON_CHECK(next.ok());
    v_ref = next->Unary(UnaryOp::kScale, 1.0 / n);
    std::printf("iter %d: Rayleigh quotient %.4f\n", i + 1,
                RayleighQuotient(*xc, v_ref));
  }

  auto v_out = LoadDense(lowered->outputs.at("v"), &store);
  CUMULON_CHECK(v_out.ok());
  auto diff = v_ref.MaxAbsDiff(*v_out);
  CUMULON_CHECK(diff.ok());
  // max |reference|, as the distance from the zero vector.
  auto ref_max = v_ref.MaxAbsDiff(DenseMatrix(d, 1));
  CUMULON_CHECK(ref_max.ok());
  const double rel_diff = diff.value() / ref_max.value();
  std::printf("max |distributed - reference| / max |reference| = %.2e\n",
              rel_diff);
  std::printf("DFS moved %s across %d tasks\n",
              FormatBytes(dfs.TotalStats().bytes_read()).c_str(),
              stats->total_tasks);
  return rel_diff < 1e-9 ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
