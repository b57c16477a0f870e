// E10 — the paper's "benchmarking" step as google-benchmark micros: raw
// per-tile kernel throughput feeding the cost-model calibration. The hot
// kernels run once per dispatch mode (scalar register-blocked oracle vs
// the packed SIMD kernels, Gemm at the dispatched vector width, DESIGN.md
// "Kernel architecture") so the SIMD speedup is visible in one run. The
// GenerateMatrix rows time input generation, which every real-engine run
// pays in its set-up. JSON output via the library's own
// `--benchmark_format=json` / `--benchmark_out=FILE`.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "matrix/kernel_config.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

/// range(1) selects the dispatch mode: 0 = scalar, 1 = simd.
KernelMode ModeArg(const benchmark::State& state) {
  return state.range(1) == 0 ? KernelMode::kScalar : KernelMode::kSimd;
}

void ApplyModeArgs(benchmark::internal::Benchmark* b,
                   std::initializer_list<int64_t> dims) {
  b->ArgNames({"d", "simd"});
  for (int64_t d : dims) {
    b->Args({d, 0});
    b->Args({d, 1});
  }
}

void BM_TileGemm(benchmark::State& state) {
  const int64_t d = state.range(0);
  const KernelMode mode = ModeArg(state);
  Rng rng(1);
  Tile a(d, d), b(d, d), c(d, d);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GemmWithMode(mode, a, b, 1.0, 0.0, &c));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * d * d * d * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileGemm)->Apply([](benchmark::internal::Benchmark* b) {
  ApplyModeArgs(b, {64, 128, 256, 512});
});

void BM_TileEwAdd(benchmark::State& state) {
  const int64_t d = state.range(0);
  const KernelMode mode = ModeArg(state);
  Rng rng(2);
  Tile a(d, d), b(d, d), c(d, d);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EwBinaryWithMode(mode, BinaryOp::kAdd, a, b, &c));
  }
  state.counters["Gelem/s"] = benchmark::Counter(
      static_cast<double>(d) * d * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileEwAdd)->Apply([](benchmark::internal::Benchmark* b) {
  ApplyModeArgs(b, {128, 256, 512});
});

void BM_TileEwSigmoid(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(3);
  Tile a(d, d), c(d, d);
  FillGaussian(&a, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EwUnary(UnaryOp::kSigmoid, a, 0.0, &c));
  }
}
BENCHMARK(BM_TileEwSigmoid)->Arg(256);

void BM_TileTranspose(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(4);
  Tile a(d, d), c(d, d);
  FillGaussian(&a, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransposeTile(a, &c));
  }
  state.counters["Gelem/s"] = benchmark::Counter(
      static_cast<double>(d) * d * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileTranspose)->Arg(128)->Arg(256)->Arg(512);

void BM_TileAccumulate(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(5);
  Tile x(d, d), acc(d, d);
  FillGaussian(&x, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AccumulateInto(x, &acc));
  }
}
BENCHMARK(BM_TileAccumulate)->Arg(256)->Arg(512);

/// One GenerateMatrix of `rows` x `cols` at `tile` into an in-memory store,
/// timed on the wall clock because a Gaussian fill runs on several threads.
/// Freeing the previous iteration's tiles is not timed.
void BM_GenerateMatrix(benchmark::State& state, FillKind kind, int64_t rows,
                       int64_t cols, int64_t tile) {
  const TiledMatrix m{"m", TileLayout::Square(rows, cols, tile)};
  Rng rng(6);
  InMemoryTileStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateMatrix(m, kind, 0.0, &rng, &store).ok());
    state.PauseTiming();
    benchmark::DoNotOptimize(store.DeleteMatrix(m.name).ok());
    state.ResumeTiming();
  }
  state.counters["Melem/s"] = benchmark::Counter(
      static_cast<double>(rows) * cols * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
// rsvd-io's A (Gaussian) and gnmf-io's V (uniform), the bench/suite inputs.
BENCHMARK_CAPTURE(BM_GenerateMatrix, gaussian_4096x4096_t512,
                  FillKind::kGaussian, 4096, 4096, 512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GenerateMatrix, uniform_4096x2048_t256,
                  FillKind::kUniform, 4096, 2048, 256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace cumulon

BENCHMARK_MAIN();
