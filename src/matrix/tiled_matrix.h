#ifndef CUMULON_MATRIX_TILED_MATRIX_H_
#define CUMULON_MATRIX_TILED_MATRIX_H_

#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "matrix/dense_matrix.h"
#include "matrix/layout.h"
#include "matrix/tile_store.h"

namespace cumulon {

/// A handle to a tiled matrix: its name (the key under which its tiles live
/// in a TileStore) plus its layout. The handle carries no data.
struct TiledMatrix {
  std::string name;
  TileLayout layout;
};

/// Writes `dense` into `store` as a tiled matrix with the given layout.
Status StoreDense(const DenseMatrix& dense, const TiledMatrix& target,
                  TileStore* store);

/// Reads all tiles of `m` from `store` and assembles the full matrix.
/// Intended for verification on small matrices.
Result<DenseMatrix> LoadDense(const TiledMatrix& m, TileStore* store);

/// Generates a tiled matrix tile by tile, filling each tile with iid N(0,1)
/// (kGaussian), U(0,1) (kUniform) or a constant, and Puts the tiles in grid
/// order. A kGaussian matrix of several tiles runs Box–Muller on up to
/// hardware_concurrency() threads that live only inside the call, over
/// batches of one tile per thread, while the calling thread draws the next
/// batch's uniforms and does every Put. The values, the Put order and the
/// state of `*rng` afterwards are exactly those of calling FillGaussian on
/// each tile in grid order. Memory besides the tiles Put: one tile, or two
/// such batches.
enum class FillKind { kGaussian, kUniform, kConstant };
Status GenerateMatrix(const TiledMatrix& m, FillKind kind, double constant,
                      Rng* rng, TileStore* store);

/// max_ij |A - B| between two tiled matrices of identical layout.
Result<double> TiledMaxAbsDiff(const TiledMatrix& a, const TiledMatrix& b,
                               TileStore* store);

}  // namespace cumulon

#endif  // CUMULON_MATRIX_TILED_MATRIX_H_
