// Status-returning boundary for the Matrix facade's shape-sensitive
// operations.
//
// The bare ops (Multiply, Add, Reshape, ...) treat a shape mismatch as a
// programming error and abort — correct for internal callers whose shapes
// were already validated by the IR. These Try* twins are the entry point for
// shapes that come from *untrusted* sources (user expressions, CLI
// arguments, deserialized metadata): they pre-validate and return
// InvalidArgument with both shapes spelled out instead of aborting.

#ifndef MNC_MATRIX_CHECKED_OPS_H_
#define MNC_MATRIX_CHECKED_OPS_H_

#include "mnc/matrix/matrix.h"
#include "mnc/util/status.h"
#include "mnc/util/thread_pool.h"

namespace mnc {

StatusOr<Matrix> TryMultiply(const Matrix& a, const Matrix& b,
                             ThreadPool* pool = nullptr);
StatusOr<Matrix> TryAdd(const Matrix& a, const Matrix& b);
StatusOr<Matrix> TryMultiplyEWise(const Matrix& a, const Matrix& b);
StatusOr<Matrix> TryMinEWise(const Matrix& a, const Matrix& b);
StatusOr<Matrix> TryMaxEWise(const Matrix& a, const Matrix& b);
StatusOr<Matrix> TryReshape(const Matrix& a, int64_t rows, int64_t cols);
StatusOr<Matrix> TryDiag(const Matrix& a);
StatusOr<Matrix> TryRBind(const Matrix& a, const Matrix& b);
StatusOr<Matrix> TryCBind(const Matrix& a, const Matrix& b);
// alpha == 0 would silently destroy the non-zero structure, so it is
// rejected like the IR rejects zero-scale nodes.
StatusOr<Matrix> TryScale(const Matrix& a, double alpha);

}  // namespace mnc

#endif  // MNC_MATRIX_CHECKED_OPS_H_
