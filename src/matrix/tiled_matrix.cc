#include "matrix/tiled_matrix.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace cumulon {

Status StoreDense(const DenseMatrix& dense, const TiledMatrix& target,
                  TileStore* store) {
  const TileLayout& L = target.layout;
  if (dense.rows() != L.rows() || dense.cols() != L.cols()) {
    return Status::InvalidArgument(
        StrCat("StoreDense: dense is ", dense.rows(), "x", dense.cols(),
               " but layout is ", L.ToString()));
  }
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto tile = std::make_shared<Tile>(L.TileRowsAt(gr), L.TileColsAt(gc));
      const int64_t r0 = gr * L.tile_rows();
      const int64_t c0 = gc * L.tile_cols();
      for (int64_t r = 0; r < tile->rows(); ++r) {
        for (int64_t c = 0; c < tile->cols(); ++c) {
          tile->Set(r, c, dense.At(r0 + r, c0 + c));
        }
      }
      CUMULON_RETURN_IF_ERROR(
          store->Put(target.name, TileId{gr, gc}, std::move(tile), -1));
    }
  }
  return Status::OK();
}

Result<DenseMatrix> LoadDense(const TiledMatrix& m, TileStore* store) {
  const TileLayout& L = m.layout;
  DenseMatrix out(L.rows(), L.cols());
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> tile,
                               store->Get(m.name, TileId{gr, gc}, -1));
      const int64_t r0 = gr * L.tile_rows();
      const int64_t c0 = gc * L.tile_cols();
      for (int64_t r = 0; r < tile->rows(); ++r) {
        for (int64_t c = 0; c < tile->cols(); ++c) {
          out.Set(r0 + r, c0 + c, tile->At(r, c));
        }
      }
    }
  }
  return out;
}

namespace {

/// A Gaussian tile between its draw and its Put: from `first` on it holds
/// the raw pairs Rng::DrawGaussianUniforms wrote.
struct DrawnTile {
  TileId id;
  std::shared_ptr<Tile> tile;
  int64_t first = 0;
};

/// GenerateMatrix's kGaussian fill on `workers` > 1 threads, in batches of
/// `workers` tiles in grid order. The calling thread draws every tile's
/// uniforms, the only step that touches `rng` and the cheap one. A pool
/// runs Box–Muller over one batch while the caller draws the next, and the
/// caller then Puts the finished batch in grid order.
Status GenerateGaussianInParallel(const TiledMatrix& m, Rng* rng,
                                  TileStore* store, int64_t workers) {
  const TileLayout& L = m.layout;
  const int64_t num_tiles = L.num_tiles();
  auto draw_batch = [&](int64_t begin) {
    std::vector<DrawnTile> batch;
    for (int64_t t = begin; t < std::min(begin + workers, num_tiles); ++t) {
      const TileId id{t / L.grid_cols(), t % L.grid_cols()};
      auto tile =
          std::make_shared<Tile>(L.TileRowsAt(id.row), L.TileColsAt(id.col));
      const int64_t first =
          rng->DrawGaussianUniforms(tile->mutable_data(), tile->size());
      batch.push_back(DrawnTile{id, std::move(tile), first});
    }
    return batch;
  };
  std::vector<DrawnTile> ready = draw_batch(0);
  std::vector<DrawnTile> next;
  // Declared after the batches, so that an early return joins the pool
  // before the tiles its tasks write are freed.
  ThreadPool pool(static_cast<int>(workers));
  auto transform = [&pool](const std::vector<DrawnTile>& batch) {
    for (const DrawnTile& drawn : batch) {
      pool.Submit([tile = drawn.tile.get(), first = drawn.first] {
        Rng::BoxMullerPairs(tile->mutable_data() + first,
                            tile->size() - first);
      });
    }
  };
  transform(ready);
  for (int64_t begin = workers; !ready.empty(); begin += workers) {
    next = draw_batch(begin);
    pool.WaitIdle();
    transform(next);
    for (DrawnTile& drawn : ready) {
      CUMULON_RETURN_IF_ERROR(
          store->Put(m.name, drawn.id, std::move(drawn.tile), -1));
    }
    ready = std::move(next);
  }
  return Status::OK();
}

}  // namespace

Status GenerateMatrix(const TiledMatrix& m, FillKind kind, double constant,
                      Rng* rng, TileStore* store) {
  const TileLayout& L = m.layout;
  if (kind != FillKind::kConstant && rng == nullptr) {
    return Status::InvalidArgument("GenerateMatrix: random fill needs an Rng");
  }
  if (kind == FillKind::kGaussian) {
    const int64_t workers = std::min<int64_t>(
        L.num_tiles(), std::max(1u, std::thread::hardware_concurrency()));
    if (workers > 1) return GenerateGaussianInParallel(m, rng, store, workers);
  }
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto tile = std::make_shared<Tile>(L.TileRowsAt(gr), L.TileColsAt(gc));
      switch (kind) {
        case FillKind::kGaussian:
          FillGaussian(tile.get(), rng);
          break;
        case FillKind::kUniform:
          FillUniform(tile.get(), rng);
          break;
        case FillKind::kConstant:
          FillTile(tile.get(), constant);
          break;
      }
      CUMULON_RETURN_IF_ERROR(
          store->Put(m.name, TileId{gr, gc}, std::move(tile), -1));
    }
  }
  return Status::OK();
}

Result<double> TiledMaxAbsDiff(const TiledMatrix& a, const TiledMatrix& b,
                               TileStore* store) {
  if (!(a.layout == b.layout)) {
    return Status::InvalidArgument("TiledMaxAbsDiff: layout mismatch");
  }
  double worst = 0.0;
  const TileLayout& L = a.layout;
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> ta,
                               store->Get(a.name, TileId{gr, gc}, -1));
      CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> tb,
                               store->Get(b.name, TileId{gr, gc}, -1));
      CUMULON_ASSIGN_OR_RETURN(double d, MaxAbsDiff(*ta, *tb));
      worst = std::max(worst, d);
    }
  }
  return worst;
}

}  // namespace cumulon
