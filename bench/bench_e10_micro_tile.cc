// E10 — the paper's "benchmarking" step as google-benchmark micros: raw
// per-tile kernel throughput feeding the cost-model calibration. The hot
// kernels run once per dispatch mode (scalar register-blocked oracle vs
// the packed SIMD kernels, Gemm at the dispatched vector width, DESIGN.md
// "Kernel architecture") so the SIMD speedup is visible in one run. JSON output via the library's own
// `--benchmark_format=json` / `--benchmark_out=FILE`.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "matrix/kernel_config.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"

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

}  // namespace
}  // namespace cumulon

BENCHMARK_MAIN();
