#include "mnc/matrix/matrix.h"

#include <atomic>

#include "mnc/util/crc32.h"

namespace mnc {

Matrix Matrix::Dense(DenseMatrix dense) {
  Matrix m;
  m.dense_ = std::make_shared<DenseMatrix>(std::move(dense));
  return m;
}

Matrix Matrix::Sparse(CsrMatrix csr) {
  Matrix m;
  m.csr_ = std::make_shared<const CsrMatrix>(std::move(csr));
  return m;
}

Matrix Matrix::AutoFromCsr(CsrMatrix csr) {
  if (csr.Sparsity() >= kDenseDispatchThreshold) {
    return Dense(csr.ToDense());
  }
  return Sparse(std::move(csr));
}

Matrix Matrix::AutoFromDense(DenseMatrix dense) {
  if (dense.Sparsity() < kDenseDispatchThreshold) {
    return Sparse(dense.ToCsr());
  }
  return Dense(std::move(dense));
}

Matrix Matrix::AutoFromDenseEstimated(DenseMatrix dense,
                                      double estimated_sparsity) {
  if (estimated_sparsity >= kDenseDispatchThreshold) {
    return Dense(std::move(dense));
  }
  return AutoFromDense(std::move(dense));
}

int64_t Matrix::rows() const { return is_dense() ? dense_->rows() : csr_->rows(); }
int64_t Matrix::cols() const { return is_dense() ? dense_->cols() : csr_->cols(); }

int64_t Matrix::NumNonZeros() const {
  return is_dense() ? dense_->NumNonZeros() : csr_->NumNonZeros();
}

double Matrix::Sparsity() const {
  return is_dense() ? dense_->Sparsity() : csr_->Sparsity();
}

const DenseMatrix& Matrix::dense() const {
  MNC_CHECK_MSG(dense_ != nullptr, "matrix is stored sparse");
  return *dense_;
}

const CsrMatrix& Matrix::csr() const {
  MNC_CHECK_MSG(csr_ != nullptr, "matrix is stored dense");
  return *csr_;
}

std::optional<DenseMatrix> Matrix::ReleaseDense() && {
  if (dense_ == nullptr || dense_.use_count() != 1) return std::nullopt;
  // Pairs with the release of the last other owner's reference count
  // decrement, so its reads of the storage happen before the moves below.
  std::atomic_thread_fence(std::memory_order_acquire);
  std::optional<DenseMatrix> out(std::move(*dense_));
  dense_.reset();
  return out;
}

CsrMatrix Matrix::AsCsr() const {
  return is_dense() ? dense_->ToCsr() : *csr_;
}

DenseMatrix Matrix::AsDense() const {
  return is_dense() ? *dense_ : csr_->ToDense();
}

bool Matrix::EqualsLogically(const Matrix& other) const {
  if (rows() != other.rows() || cols() != other.cols()) return false;
  return AsCsr().Equals(other.AsCsr());
}

uint64_t MatrixFingerprint(const Matrix& m) {
  const int64_t dims[2] = {m.rows(), m.cols()};
  uint32_t structure = Crc32(dims, sizeof(dims));
  uint32_t values = 0;
  // Feed every stored non-zero as ((i, j) -> structure, value -> values) in
  // row-major order, which is identical for the dense and CSR layouts of the
  // same logical matrix (CSR columns are strictly increasing per row, and
  // CSR never stores zeros).
  if (m.is_dense()) {
    const DenseMatrix& d = m.dense();
    for (int64_t i = 0; i < d.rows(); ++i) {
      for (int64_t j = 0; j < d.cols(); ++j) {
        const double v = d.At(i, j);
        if (v == 0.0) continue;
        const int64_t coord[2] = {i, j};
        structure = Crc32Update(structure, coord, sizeof(coord));
        values = Crc32Update(values, &v, sizeof(v));
      }
    }
  } else {
    const CsrMatrix& c = m.csr();
    for (int64_t i = 0; i < c.rows(); ++i) {
      const auto idx = c.RowIndices(i);
      const auto val = c.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        const int64_t coord[2] = {i, idx[k]};
        structure = Crc32Update(structure, coord, sizeof(coord));
        values = Crc32Update(values, &val[k], sizeof(val[k]));
      }
    }
  }
  return (static_cast<uint64_t>(structure) << 32) | values;
}

}  // namespace mnc
