// E1 — Cumulon vs Hadoop-based matrix systems on multiply (the paper's
// headline performance comparison). Same simulated cluster, same inputs;
// compares Cumulon's map-only multiply against the RMM and CPMM MapReduce
// strategies across matrix sizes and shapes.
//
// Paper expectation: Cumulon wins on every shape (roughly 2x or more),
// because it shuffles nothing; RMM degrades with output size, CPMM with
// the shared dimension.
//
// `--kernels-only [--json FILE]` skips the cluster comparison and instead
// measures the raw per-tile Gemm kernels (scalar register-blocked oracle
// vs packed AVX2+FMA micro-kernel, DESIGN.md "Kernel architecture"),
// reporting single-core GFLOP/s and the SIMD speedup, plus Gemm(A^T * B)
// at 512^3 in both modes: a transposed operand is packed straight from its
// stored tile, and this row is what that costs against the plain multiply.
// It also reports the tile checksum (Checksum64) in GB/s at 512 KiB and
// 64 KiB, the sizes of the benchmark workloads' tiles, since every DFS
// write and verified read hashes a whole tile. CI uploads the JSON as the
// BENCH_kernels.json artifact to track kernel regressions.

#include <algorithm>
#include <cstring>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "matrix/kernel_config.h"
#include "matrix/tile_io.h"

namespace cumulon::bench {
namespace {

struct Shape {
  const char* label;
  int64_t m, k, n;
};

void RunShape(const Shape& shape) {
  const int64_t tile = 2048;
  SimWorld world(DefaultCluster(16));
  TiledMatrix a{"A", TileLayout::Square(shape.m, shape.k, tile)};
  TiledMatrix b{"B", TileLayout::Square(shape.k, shape.n, tile)};
  world.LoadInput(a);
  world.LoadInput(b);

  // Cumulon: map-only multiply with optimizer-chosen split parameters
  // (the system tunes these per job; we take the best of its portfolio).
  PlanStats cumulon;
  bool have_best = false;
  for (const MatMulParams params :
       {MatMulParams{1, 1, 0}, MatMulParams{2, 2, 0}, MatMulParams{4, 4, 0},
        MatMulParams{1, 1, 1}, MatMulParams{1, 1, 4},
        MatMulParams{1, 1, 8}}) {
    TiledMatrix c_cumulon{"C_cumulon",
                          TileLayout::Square(shape.m, shape.n, tile)};
    PhysicalPlan plan;
    Status st = AddMatMul(a, b, c_cumulon, params, {}, &plan);
    CUMULON_CHECK(st.ok()) << st;
    PlanStats stats = world.Run(plan);
    Status deleted = world.store()->DeleteMatrix("C_cumulon");
    CUMULON_CHECK(deleted.ok()) << deleted;
    if (!have_best || stats.total_seconds < cumulon.total_seconds) {
      cumulon = std::move(stats);
      have_best = true;
    }
  }

  MrOptions mr;
  mr.real_mode = false;
  TiledMatrix c_rmm{"C_rmm", TileLayout::Square(shape.m, shape.n, tile)};
  auto rmm = RunMrMultiply(MrStrategy::kRmm, a, b, c_rmm, world.store(),
                           world.engine(), world.cost(), mr);
  CUMULON_CHECK(rmm.ok()) << rmm.status();
  TiledMatrix c_cpmm{"C_cpmm", TileLayout::Square(shape.m, shape.n, tile)};
  auto cpmm = RunMrMultiply(MrStrategy::kCpmm, a, b, c_cpmm, world.store(),
                            world.engine(), world.cost(), mr);
  CUMULON_CHECK(cpmm.ok()) << cpmm.status();

  std::printf("%-24s %10s %10s %10s %8.2fx %8.2fx\n", shape.label,
              FormatDuration(cumulon.total_seconds).c_str(),
              FormatDuration(rmm->total_seconds).c_str(),
              FormatDuration(cpmm->total_seconds).c_str(),
              rmm->total_seconds / cumulon.total_seconds,
              cpmm->total_seconds / cumulon.total_seconds);
}

void Run() {
  PrintHeader("E1: multiply time, Cumulon vs RMM vs CPMM (16 x m1.large)");
  std::printf("%-24s %10s %10s %10s %9s %9s\n", "shape (m x k x n)",
              "Cumulon", "RMM", "CPMM", "RMM/C", "CPMM/C");
  PrintRule();
  const Shape shapes[] = {
      {"8k x 8k x 8k", 8192, 8192, 8192},
      {"16k x 16k x 16k", 16384, 16384, 16384},
      {"32k x 32k x 32k", 32768, 32768, 32768},
      {"64k x 8k x 8k (tall)", 65536, 8192, 8192},
      {"8k x 64k x 8k (deep)", 8192, 65536, 8192},
      {"8k x 8k x 64k (wide)", 8192, 8192, 65536},
  };
  for (const Shape& shape : shapes) RunShape(shape);
}

// ---------------------------------------------------------------------------
// --kernels-only: raw Gemm kernel throughput, scalar vs SIMD
// ---------------------------------------------------------------------------

/// Single-core GFLOP/s of `mode`'s Gemm on an n x n x n multiply with A
/// read in orientation `a_orient`, repeated until ~0.2s of work so small
/// sizes are not timer-bound.
double MeasureGemmGflops(KernelMode mode, int64_t n,
                         Orientation a_orient = Orientation::kAsStored) {
  Rng rng(7);
  Tile a(n, n), b(n, n), c(n, n);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);
  const double flops = 2.0 * n * n * n;
  Status st = Gemm(a, b, 1.0, 0.0, &c, a_orient);  // warm caches, fault pages
  CUMULON_CHECK(st.ok()) << st;
  const int reps = std::max<int>(1, static_cast<int>(2e9 / flops));
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    st = GemmWithMode(mode, a, b, 1.0, 0.0, &c, a_orient);
    CUMULON_CHECK(st.ok()) << st;
  }
  return flops * reps / sw.ElapsedSeconds() / 1e9;
}

/// Single-core GB/s of Checksum64 over a `bytes`-long buffer, repeated
/// until ~2 GB have been hashed.
double MeasureChecksumGbps(size_t bytes) {
  std::vector<uint8_t> buffer(bytes);
  for (size_t i = 0; i < bytes; ++i) buffer[i] = static_cast<uint8_t>(i * 131);
  const uint64_t expected = Checksum64(buffer.data(), bytes);  // fault pages
  const int reps = std::max<int>(1, static_cast<int>(2e9 / bytes));
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    CUMULON_CHECK(Checksum64(buffer.data(), bytes) == expected);
  }
  return static_cast<double>(bytes) * reps / sw.ElapsedSeconds() / 1e9;
}

struct KernelRow {
  int64_t n;
  double scalar_gflops;
  double simd_gflops;
};

void RunKernelsOnly(const std::string& json_path) {
  PrintHeader("E1 (kernels): single-core tile Gemm, scalar vs SIMD");
  std::printf("SIMD dispatch: %s\n",
              SimdKernelAvailable() ? "avx2+fma" : "unavailable (scalar)");
  std::printf("%-12s %14s %14s %10s\n", "n (n^3 mul)", "scalar GF/s",
              "simd GF/s", "speedup");
  PrintRule();
  std::vector<KernelRow> rows;
  for (int64_t n : {256, 512, 1024}) {
    KernelRow row{n, MeasureGemmGflops(KernelMode::kScalar, n),
                  MeasureGemmGflops(KernelMode::kSimd, n)};
    std::printf("%-12lld %14.2f %14.2f %9.2fx\n",
                static_cast<long long>(n), row.scalar_gflops,
                row.simd_gflops, row.simd_gflops / row.scalar_gflops);
    rows.push_back(row);
  }
  // A^T * B beside the plain n=512 row: the price of packing A from its
  // stored tile with swapped strides instead of from a transposed copy.
  const KernelRow& plain = rows[1];
  CUMULON_CHECK(plain.n == 512);
  const KernelRow at{plain.n,
                     MeasureGemmGflops(KernelMode::kScalar, plain.n,
                                       Orientation::kTransposed),
                     MeasureGemmGflops(KernelMode::kSimd, plain.n,
                                       Orientation::kTransposed)};
  std::printf("%-12s %14.2f %14.2f %9.2fx\n", "512 (A^T B)",
              at.scalar_gflops, at.simd_gflops,
              at.simd_gflops / at.scalar_gflops);
  std::printf("A^T B vs plain at 512: scalar %.2fx, simd %.2fx\n",
              at.scalar_gflops / plain.scalar_gflops,
              at.simd_gflops / plain.simd_gflops);
  const size_t checksum_kib[] = {512, 64};
  double checksum_gbps[2];
  for (int i = 0; i < 2; ++i) {
    checksum_gbps[i] = MeasureChecksumGbps(checksum_kib[i] * 1024);
    std::printf("tile checksum at %zu KiB: %.2f GB/s\n", checksum_kib[i],
                checksum_gbps[i]);
  }
  if (json_path.empty()) return;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  CUMULON_CHECK(f != nullptr) << "cannot write " << json_path;
  std::fprintf(f, "{\"bench\":\"e1_kernels\",\"simd_available\":%s,",
               SimdKernelAvailable() ? "true" : "false");
  std::fprintf(f, "\"gemm\":[");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s{\"n\":%lld,\"scalar_gflops\":%.3f,"
                 "\"simd_gflops\":%.3f,\"speedup\":%.3f}",
                 i == 0 ? "" : ",", static_cast<long long>(rows[i].n),
                 rows[i].scalar_gflops, rows[i].simd_gflops,
                 rows[i].simd_gflops / rows[i].scalar_gflops);
  }
  std::fprintf(f,
               "],\"gemm_at_b\":{\"n\":%lld,\"scalar_gflops\":%.3f,"
               "\"simd_gflops\":%.3f,\"scalar_vs_plain\":%.3f,"
               "\"simd_vs_plain\":%.3f},",
               static_cast<long long>(at.n), at.scalar_gflops,
               at.simd_gflops, at.scalar_gflops / plain.scalar_gflops,
               at.simd_gflops / plain.simd_gflops);
  std::fprintf(f,
               "\"tile_checksum\":[{\"kib\":%zu,\"gbps\":%.3f},"
               "{\"kib\":%zu,\"gbps\":%.3f}]}\n",
               checksum_kib[0], checksum_gbps[0], checksum_kib[1],
               checksum_gbps[1]);
  std::fclose(f);
  std::printf("kernel summary -> %s\n", json_path.c_str());
}

}  // namespace
}  // namespace cumulon::bench

int main(int argc, char** argv) {
  cumulon::bench::ObsSession obs(argc, argv);
  bool kernels_only = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels-only") == 0) kernels_only = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  if (kernels_only) {
    cumulon::bench::RunKernelsOnly(json_path);
  } else {
    cumulon::bench::Run();
  }
  return 0;
}
