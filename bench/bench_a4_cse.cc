// A4 — ablation: common-subexpression elimination in lowering. Iterative
// statistical programs repeat structures; CSE materializes each shared
// subexpression once per value version.
//
// GNMF's only repeated materialized values used to be the transposes (W^T
// in its numerator and denominator, H^T likewise). Multiplies now read a
// transposed operand in place, so nothing is left to share: expect the
// same jobs, bytes and time with CSE on and off. Programs that reuse a
// whole product (cse_test) still save one job per reuse.

#include "bench/bench_util.h"

namespace cumulon::bench {
namespace {

struct Outcome {
  size_t jobs = 0;
  int64_t bytes_written = 0;
  double seconds = 0.0;
};

Outcome RunGnmf(int iterations, bool cse) {
  GnmfSpec spec;
  spec.m = 1 << 15;
  spec.n = 1 << 14;
  spec.k = 128;

  DfsOptions dfs_options;
  dfs_options.num_nodes = 16;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  std::map<std::string, TiledMatrix> bindings;
  for (auto [name, rows, cols] :
       {std::tuple<const char*, int64_t, int64_t>{"V", spec.m, spec.n},
        {"W", spec.m, spec.k},
        {"H", spec.k, spec.n}}) {
    TiledMatrix m{name, TileLayout::Square(rows, cols, 2048)};
    for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
        const int64_t bytes =
            16 + m.layout.TileRowsAt(r) * m.layout.TileColsAt(c) * 8;
        CUMULON_CHECK(store.PutMeta(name, TileId{r, c}, bytes, -1).ok());
      }
    }
    bindings.insert_or_assign(name, m);
  }

  LoweringOptions lowering;
  lowering.tile_dim = 2048;
  lowering.enable_cse = cse;
  auto lowered = Lower(
      OptimizeProgram(Repeat(BuildGnmfIteration(spec), iterations)),
      bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();

  SimEngine engine(DefaultCluster(16), SimEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.real_mode = false;
  Executor executor(&store, &engine, &cost, options);
  auto stats = executor.Run(lowered->plan);
  CUMULON_CHECK(stats.ok()) << stats.status();
  return {lowered->plan.jobs.size(), stats->bytes_written,
          stats->total_seconds};
}

void Run() {
  PrintHeader("A4: CSE ablation, GNMF unrolled iterations (16 x m1.large)");
  std::printf("%-8s %12s %12s %16s %12s\n", "iters", "CSE", "jobs",
              "bytes written", "time");
  PrintRule();
  for (int iterations : {1, 3}) {
    for (bool cse : {true, false}) {
      Outcome o = RunGnmf(iterations, cse);
      std::printf("%-8d %12s %12zu %16s %12s\n", iterations,
                  cse ? "on" : "off", o.jobs,
                  FormatBytes(o.bytes_written).c_str(),
                  FormatDuration(o.seconds).c_str());
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
