// Format-dispatching matrix facade.
//
// A Matrix holds either a DenseMatrix or a CsrMatrix behind shared,
// immutable storage, mirroring how ML systems (SystemML, Julia, MLlib)
// dispatch between dense and sparse physical operators. The dispatch
// threshold follows footnote 3 of the paper: dense layout is used only when
// sparsity >= 0.4. The one exception to immutability is ReleaseDense: the
// sole owner of dense storage may take it back for reuse.

#ifndef MNC_MATRIX_MATRIX_H_
#define MNC_MATRIX_MATRIX_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "mnc/matrix/csr_matrix.h"
#include "mnc/matrix/dense_matrix.h"

namespace mnc {

// Sparsity at or above which dense layouts are preferred (SystemML default).
inline constexpr double kDenseDispatchThreshold = 0.4;

class Matrix {
 public:
  // Wraps a dense matrix without changing format.
  static Matrix Dense(DenseMatrix dense);

  // Wraps a CSR matrix without changing format.
  static Matrix Sparse(CsrMatrix csr);

  // Wraps a CSR matrix and converts it to dense if its sparsity is at or
  // above kDenseDispatchThreshold.
  static Matrix AutoFromCsr(CsrMatrix csr);

  // Wraps a dense matrix and converts it to CSR if its sparsity is below
  // kDenseDispatchThreshold.
  static Matrix AutoFromDense(DenseMatrix dense);

  // Format decision from an *estimated* sparsity (sketch-guided execution):
  // when the estimate clears the dispatch threshold the dense result is
  // wrapped as-is, skipping AutoFromDense's O(rows * cols) non-zero scan;
  // otherwise defers to the scanning AutoFromDense so the stored format
  // still matches the actual data even when the estimate is wrong.
  static Matrix AutoFromDenseEstimated(DenseMatrix dense,
                                       double estimated_sparsity);

  bool is_dense() const { return dense_ != nullptr; }

  int64_t rows() const;
  int64_t cols() const;
  int64_t NumNonZeros() const;
  double Sparsity() const;

  // Direct access; aborts if the matrix is stored in the other format.
  const DenseMatrix& dense() const;
  const CsrMatrix& csr() const;

  // Moves the dense storage out when this Matrix is its only owner, leaving
  // *this empty (only destruction or assignment may follow). Returns
  // nullopt and leaves *this unchanged when the matrix is stored sparse or
  // another Matrix shares the storage.
  std::optional<DenseMatrix> ReleaseDense() &&;

  // Format conversions (copying when the format differs).
  CsrMatrix AsCsr() const;
  DenseMatrix AsDense() const;

  // Value-level equality irrespective of physical format.
  bool EqualsLogically(const Matrix& other) const;

  // Identity of the shared, immutable storage block. Two Matrix values that
  // copy-share the same underlying DenseMatrix/CsrMatrix return the same
  // key, which lets long-lived caches (the estimation service) map storage
  // to a content fingerprint without rescanning the data. The key is only
  // meaningful while some Matrix still pins the storage alive.
  const void* storage_key() const {
    return dense_ != nullptr ? static_cast<const void*>(dense_.get())
                             : static_cast<const void*>(csr_.get());
  }

 private:
  Matrix() = default;

  // Non-const pointee so that ReleaseDense may move from it; every other
  // access is through const.
  std::shared_ptr<DenseMatrix> dense_;
  std::shared_ptr<const CsrMatrix> csr_;
};

// 64-bit content fingerprint of the logical matrix: a CRC32 over the
// non-zero structure (dims plus every stored (i, j) coordinate) paired with
// a CRC32 over the non-zero values, independent of physical format — the
// dense and sparse representations of the same logical matrix fingerprint
// identically. Used by the estimation service's sketch catalog to detect
// re-registration of identical data. Not cryptographic: collisions are
// possible in principle (~2^-64 for unrelated inputs) and acceptable for
// cache identity.
uint64_t MatrixFingerprint(const Matrix& m);

}  // namespace mnc

#endif  // MNC_MATRIX_MATRIX_H_
