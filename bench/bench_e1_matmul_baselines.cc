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
// vs the packed SIMD micro-kernel at the dispatched vector width, DESIGN.md
// "Kernel architecture"), reporting single-core GFLOP/s and the SIMD
// speedup, plus Gemm(A^T * B) at 512^3 in both modes: a transposed operand
// is read in place from its stored tile, and this row is what that costs
// against the plain multiply. The products the benchmark's real workloads
// run (rsvd-io, gnmf-io) get one row each with the scalar oracle and every
// vector width the CPU has, called directly.
// It also reports the tile checksum (Checksum64) in GB/s at 512 KiB and
// 64 KiB, the sizes of the benchmark workloads' tiles, since every DFS
// write and verified read hashes a whole tile. CI uploads the JSON as the
// BENCH_kernels.json artifact to track kernel regressions.

#include <algorithm>
#include <cstring>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "matrix/gemm_packed.h"
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

using GemmFn = Status (*)(const Tile&, const Tile&, double, double, Tile*,
                          Orientation, Orientation);

/// One product op(A) (m x k) * op(B) (k x n), operands stored per
/// orientation.
struct Product {
  const char* label;
  int64_t m, k, n;
  Orientation a_orient, b_orient;
};

/// Single-core GFLOP/s of `gemm` on `p` with beta = 0, repeated until ~2
/// GFLOP of work so small sizes are not timer-bound.
double MeasureProductGflops(GemmFn gemm, const Product& p) {
  Rng rng(7);
  const bool ta = p.a_orient == Orientation::kTransposed;
  const bool tb = p.b_orient == Orientation::kTransposed;
  Tile a(ta ? p.k : p.m, ta ? p.m : p.k);
  Tile b(tb ? p.n : p.k, tb ? p.k : p.n);
  Tile c(p.m, p.n);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);
  const double flops = 2.0 * p.m * p.k * p.n;
  // Warm caches and fault pages.
  Status st = gemm(a, b, 1.0, 0.0, &c, p.a_orient, p.b_orient);
  CUMULON_CHECK(st.ok()) << st;
  const int reps = std::max<int>(1, static_cast<int>(2e9 / flops));
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    st = gemm(a, b, 1.0, 0.0, &c, p.a_orient, p.b_orient);
    CUMULON_CHECK(st.ok()) << st;
  }
  return flops * reps / sw.ElapsedSeconds() / 1e9;
}

Status ScalarGemm(const Tile& a, const Tile& b, double alpha, double beta,
                  Tile* c, Orientation a_orient, Orientation b_orient) {
  return GemmWithMode(KernelMode::kScalar, a, b, alpha, beta, c, a_orient,
                      b_orient);
}

Status SimdGemm(const Tile& a, const Tile& b, double alpha, double beta,
                Tile* c, Orientation a_orient, Orientation b_orient) {
  return GemmWithMode(KernelMode::kSimd, a, b, alpha, beta, c, a_orient,
                      b_orient);
}

/// Single-core GFLOP/s of `mode`'s Gemm on an n x n x n multiply with A
/// read in orientation `a_orient`.
double MeasureGemmGflops(KernelMode mode, int64_t n,
                         Orientation a_orient = Orientation::kAsStored) {
  return MeasureProductGflops(
      mode == KernelMode::kScalar ? ScalarGemm : SimdGemm,
      Product{"", n, n, n, a_orient, Orientation::kAsStored});
}

/// The products of the benchmark's real workloads (bench/suite,
/// workload_real.cc), one tile each.
const Product kWorkloadProducts[] = {
    {"rsvd-io X*V", 512, 512, 64, Orientation::kAsStored,
     Orientation::kAsStored},
    {"rsvd-io X^T*U", 512, 512, 64, Orientation::kTransposed,
     Orientation::kAsStored},
    {"gnmf-io W^T*V", 32, 256, 256, Orientation::kTransposed,
     Orientation::kAsStored},
    {"gnmf-io V*H^T", 256, 256, 32, Orientation::kAsStored,
     Orientation::kTransposed},
};

/// `gflops` with `decimals` decimals, or `absent` for a width the CPU
/// lacks (negative).
std::string FormatGflops(double gflops, int decimals, const char* absent) {
  if (gflops < 0) return absent;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, gflops);
  return buf;
}

/// Scalar, AVX2 and (when the CPU has it) AVX-512 GFLOP/s of one product;
/// a width the CPU lacks reads -1.
struct WidthRow {
  const Product* product;
  double scalar_gflops;
  double avx2_gflops;
  double avx512_gflops;
};

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
  const char* dispatched = GemmKernelName(KernelMode::kSimd);
  std::printf("SIMD dispatch: %s%s\n", dispatched,
              SimdKernelAvailable() ? "" : " (no avx2+fma)");
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
  std::printf("\n%-16s %11s %14s %12s %12s %12s\n", "workload product",
              "m x k x n", "scalar GF/s", "avx2 GF/s", "avx512 GF/s",
              "vs scalar");
  PrintRule();
  std::vector<WidthRow> width_rows;
  for (const Product& p : kWorkloadProducts) {
    WidthRow row{&p, MeasureProductGflops(ScalarGemm, p), -1.0, -1.0};
    if (CpuSupportsSimdWidth(SimdWidth::kAvx2)) {
      row.avx2_gflops =
          MeasureProductGflops(kernel_internal::GemmPackedAvx2, p);
    }
    if (CpuSupportsSimdWidth(SimdWidth::kAvx512)) {
      row.avx512_gflops =
          MeasureProductGflops(kernel_internal::GemmPackedAvx512, p);
    }
    const double best = std::max(row.avx2_gflops, row.avx512_gflops);
    const std::string shape = StrCat(p.m, "x", p.k, "x", p.n);
    std::printf("%-16s %11s %14.2f %12s %12s %11sx\n", p.label,
                shape.c_str(), row.scalar_gflops,
                FormatGflops(row.avx2_gflops, 2, "-").c_str(),
                FormatGflops(row.avx512_gflops, 2, "-").c_str(),
                FormatGflops(best < 0 ? -1.0 : best / row.scalar_gflops, 2,
                             "-")
                    .c_str());
    width_rows.push_back(row);
  }
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
  std::fprintf(f,
               "{\"bench\":\"e1_kernels\",\"simd_available\":%s,"
               "\"simd_width\":\"%s\",",
               SimdKernelAvailable() ? "true" : "false", dispatched);
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
  std::fprintf(f, "\"workload_gemm\":[");
  for (size_t i = 0; i < width_rows.size(); ++i) {
    const WidthRow& row = width_rows[i];
    const Product& p = *row.product;
    std::fprintf(f,
                 "%s{\"product\":\"%s\",\"m\":%lld,\"k\":%lld,"
                 "\"n\":%lld,\"a_transposed\":%s,\"b_transposed\":%s,"
                 "\"scalar_gflops\":%.3f,\"avx2_gflops\":%s,"
                 "\"avx512_gflops\":%s}",
                 i == 0 ? "" : ",", p.label, static_cast<long long>(p.m),
                 static_cast<long long>(p.k), static_cast<long long>(p.n),
                 p.a_orient == Orientation::kTransposed ? "true" : "false",
                 p.b_orient == Orientation::kTransposed ? "true" : "false",
                 row.scalar_gflops,
                 FormatGflops(row.avx2_gflops, 3, "null").c_str(),
                 FormatGflops(row.avx512_gflops, 3, "null").c_str());
  }
  std::fprintf(f, "],");
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
