#include "mnc/matrix/checked_ops.h"

#include <string>

#include "mnc/matrix/ops_ewise.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/matrix/ops_reorg.h"

namespace mnc {

namespace {

std::string ShapeStr(const Matrix& m) {
  return std::to_string(m.rows()) + " x " + std::to_string(m.cols());
}

Status CheckSameShape(const char* op, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument(std::string(op) +
                                   ": operand shapes disagree (" +
                                   ShapeStr(a) + " vs " + ShapeStr(b) + ")");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Matrix> TryMultiply(const Matrix& a, const Matrix& b,
                             ThreadPool* pool) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("MatMul: inner dimensions disagree (" +
                                   ShapeStr(a) + " vs " + ShapeStr(b) + ")");
  }
  return Multiply(a, b, pool);
}

StatusOr<Matrix> TryAdd(const Matrix& a, const Matrix& b) {
  MNC_RETURN_IF_ERROR(CheckSameShape("EWiseAdd", a, b));
  return Add(a, b);
}

StatusOr<Matrix> TryMultiplyEWise(const Matrix& a, const Matrix& b) {
  MNC_RETURN_IF_ERROR(CheckSameShape("EWiseMult", a, b));
  return MultiplyEWise(a, b);
}

StatusOr<Matrix> TryMinEWise(const Matrix& a, const Matrix& b) {
  MNC_RETURN_IF_ERROR(CheckSameShape("EWiseMin", a, b));
  return MinEWise(a, b);
}

StatusOr<Matrix> TryMaxEWise(const Matrix& a, const Matrix& b) {
  MNC_RETURN_IF_ERROR(CheckSameShape("EWiseMax", a, b));
  return MaxEWise(a, b);
}

StatusOr<Matrix> TryReshape(const Matrix& a, int64_t rows, int64_t cols) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("Reshape: negative target shape " +
                                   std::to_string(rows) + " x " +
                                   std::to_string(cols));
  }
  if (a.rows() * a.cols() != rows * cols) {
    return Status::InvalidArgument(
        "Reshape: cell count changes from " + ShapeStr(a) + " to " +
        std::to_string(rows) + " x " + std::to_string(cols));
  }
  return Reshape(a, rows, cols);
}

StatusOr<Matrix> TryDiag(const Matrix& a) {
  if (a.cols() != 1 && a.rows() != a.cols()) {
    return Status::InvalidArgument(
        "Diag: input must be square or a column vector, got " + ShapeStr(a));
  }
  return Diag(a);
}

StatusOr<Matrix> TryRBind(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("RBind: column counts disagree (" +
                                   ShapeStr(a) + " vs " + ShapeStr(b) + ")");
  }
  return RBind(a, b);
}

StatusOr<Matrix> TryCBind(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("CBind: row counts disagree (" +
                                   ShapeStr(a) + " vs " + ShapeStr(b) + ")");
  }
  return CBind(a, b);
}

StatusOr<Matrix> TryScale(const Matrix& a, double alpha) {
  if (alpha == 0.0) {
    return Status::InvalidArgument(
        "Scale: zero scale would erase the non-zero structure");
  }
  return Scale(a, alpha);
}

}  // namespace mnc
