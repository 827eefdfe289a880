#include "mnc/matrix/ops_product.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "mnc/core/mnc_sketch.h"
#include "mnc/core/row_estimates.h"
#include "mnc/kernels/kernels.h"
#include "mnc/matrix/checked_ops.h"
#include "mnc/matrix/generate.h"
#include "mnc/util/arena.h"
#include "mnc/util/random.h"
#include "mnc/util/thread_pool.h"

namespace mnc {
namespace {

// Reference O(mnl) product on dense matrices.
DenseMatrix ReferenceProduct(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) {
        acc += a.At(i, k) * b.At(k, j);
      }
      c.Set(i, j, acc);
    }
  }
  return c;
}

// Same shape, same values bit for bit (memcmp, so -0.0 != 0.0).
bool DenseBitIdentical(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.size()) * sizeof(double)) == 0;
}

bool CsrBitIdentical(const CsrMatrix& x, const CsrMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         x.row_ptr() == y.row_ptr() && x.col_idx() == y.col_idx() &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size() * sizeof(double)) == 0;
}

// Same stored format and bit-identical contents.
bool MatrixBitIdentical(const Matrix& x, const Matrix& y) {
  if (x.is_dense() != y.is_dense()) return false;
  return x.is_dense() ? DenseBitIdentical(x.dense(), y.dense())
                      : CsrBitIdentical(x.csr(), y.csr());
}

// Exact flop count of the sparse x sparse kernel.
int64_t Flops(const CsrMatrix& a, const CsrMatrix& b) {
  int64_t flops = 0;
  for (int64_t k : a.col_idx()) flops += b.RowNnz(k);
  return flops;
}

TEST(ProductTest, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  DenseMatrix b(2, 2, {5, 6, 7, 8});
  DenseMatrix c = MultiplyDenseDense(a, b);
  EXPECT_EQ(c.At(0, 0), 19.0);
  EXPECT_EQ(c.At(0, 1), 22.0);
  EXPECT_EQ(c.At(1, 0), 43.0);
  EXPECT_EQ(c.At(1, 1), 50.0);
}

TEST(ProductTest, IdentityIsNeutral) {
  Rng rng(1);
  CsrMatrix x = GenerateUniformSparse(10, 10, 0.3, rng);
  CsrMatrix id = GenerateSelection({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10);
  EXPECT_TRUE(MultiplySparseSparse(id, x).Equals(x));
  EXPECT_TRUE(MultiplySparseSparse(x, id).Equals(x));
}

TEST(ProductTest, RectangularShapes) {
  Rng rng(2);
  DenseMatrix a = GenerateDense(3, 7, rng);
  DenseMatrix b = GenerateDense(7, 5, rng);
  DenseMatrix c = MultiplyDenseDense(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 5);
  EXPECT_TRUE(c.Equals(ReferenceProduct(a, b)));
}

TEST(ProductTest, MultiThreadedMatchesSingleThreaded) {
  Rng rng(3);
  DenseMatrix a = GenerateDense(37, 23, rng);
  DenseMatrix b = GenerateDense(23, 41, rng);
  ThreadPool pool(4);
  DenseMatrix st = MultiplyDenseDense(a, b);
  DenseMatrix mt = MultiplyDenseDense(a, b, &pool);
  EXPECT_TRUE(st.Equals(mt));
}

TEST(ProductTest, EmptyOperands) {
  CsrMatrix a(3, 4);
  CsrMatrix b(4, 2);
  CsrMatrix c = MultiplySparseSparse(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.NumNonZeros(), 0);
}

TEST(ProductTest, ProductNnzExactMatchesProduct) {
  Rng rng(4);
  CsrMatrix a = GenerateUniformSparse(30, 40, 0.1, rng);
  CsrMatrix b = GenerateUniformSparse(40, 25, 0.1, rng);
  CsrMatrix c = MultiplySparseSparse(a, b);
  EXPECT_EQ(ProductNnzExact(a, b), c.NumNonZeros());
}

TEST(ProductTest, FacadeDispatchChoosesOutputFormat) {
  Rng rng(5);
  // Ultra-sparse x ultra-sparse stays sparse.
  Matrix a = Matrix::Sparse(GenerateUniformSparse(50, 50, 0.01, rng));
  Matrix b = Matrix::Sparse(GenerateUniformSparse(50, 50, 0.01, rng));
  EXPECT_FALSE(Multiply(a, b).is_dense());
  // Dense x dense is dense.
  Matrix c = Matrix::Dense(GenerateDense(20, 20, rng));
  Matrix d = Matrix::Dense(GenerateDense(20, 20, rng));
  EXPECT_TRUE(Multiply(c, d).is_dense());
}

// One row through scatter + gather, against an independent reference: the
// sorted (column, sum) pairs whose sum is not exactly 0.0. Each term is
// (column, a-value, b-value); terms come in the order given.
void ExpectGatherMatchesReference(
    int64_t cols, const std::vector<std::tuple<int64_t, double, double>>& terms,
    bool expect_sweep) {
  ScratchArena arena;
  arena.EnsureScatterCols(cols);
  double* acc = arena.scatter_acc();
  char* seen = arena.scatter_seen();
  std::vector<int64_t>& occupied = arena.scatter_list();
  std::map<int64_t, double> reference;
  for (const auto& [j, av, bv] : terms) {
    kernels::SpGemmScatterRow(&j, &bv, 1, av, acc, seen, occupied);
    reference[j] += av * bv;
  }
  ASSERT_EQ(expect_sweep, kernels::SpGemmGatherSweeps(
                              static_cast<int64_t>(occupied.size()), cols));
  std::vector<int64_t> out_idx(occupied.size());
  std::vector<double> out_val(occupied.size());
  const int64_t written = kernels::SpGemmGatherRow(
      occupied, cols, acc, seen, out_idx.data(), out_val.data());
  std::vector<std::pair<int64_t, double>> expected;
  for (const auto& [j, v] : reference) {
    if (v != 0.0) expected.emplace_back(j, v);
  }
  ASSERT_EQ(static_cast<int64_t>(expected.size()), written);
  for (int64_t t = 0; t < written; ++t) {
    EXPECT_EQ(expected[static_cast<size_t>(t)].first, out_idx[t]) << t;
    EXPECT_EQ(0, std::memcmp(&expected[static_cast<size_t>(t)].second,
                             &out_val[t], sizeof(double)))
        << t;
  }
  EXPECT_TRUE(occupied.empty());
  for (int64_t j = 0; j < cols; ++j) {
    ASSERT_EQ(0.0, acc[j]) << j;
    ASSERT_EQ(0, seen[j]) << j;
  }
}

TEST(ProductTest, GatherSweepAndSortAgreeAroundTheSwitch) {
  for (int64_t cols : {int64_t{64}, int64_t{1024}}) {
    const int64_t at = cols / 16;  // smallest population that sweeps
    for (int64_t population : {at - 1, at, at + 1}) {
      // Scattered columns in descending order (the sort has work to do),
      // every third one cancelled to exactly 0.0 by a second term.
      std::vector<std::tuple<int64_t, double, double>> terms;
      Rng rng(static_cast<uint64_t>(cols + population));
      for (int64_t t = 0; t < population; ++t) {
        const int64_t j = cols - 1 - t * (cols / population);
        const double v = rng.Uniform(0.5, 1.5);
        terms.emplace_back(j, 2.0, v);
        if (t % 3 == 0) terms.emplace_back(j, -2.0, v);
      }
      SCOPED_TRACE(testing::Message() << "cols=" << cols
                                      << " population=" << population);
      ExpectGatherMatchesReference(cols, terms, population >= at);
    }
  }
}

TEST(ProductTest, GatherDropsRowsThatCancelEntirely) {
  // Every column cancels: both paths write nothing and leave clean buffers.
  for (int64_t population : {int64_t{3}, int64_t{4}, int64_t{64}}) {
    std::vector<std::tuple<int64_t, double, double>> terms;
    for (int64_t j = 0; j < population; ++j) {
      terms.emplace_back(j, 1.5, 0.25);
      terms.emplace_back(j, -1.5, 0.25);
    }
    SCOPED_TRACE(testing::Message() << "population=" << population);
    ExpectGatherMatchesReference(64, terms, population * 16 >= 64);
  }
}

TEST(ProductTest, SpGemmWithCancellationMatchesReferenceAcrossSwitch) {
  // Row i of A holds i + 1 entries of alternating sign; B maps row k to
  // columns 5k and 5k + 5, so every inner column of output row i cancels to
  // exactly 0.0 and only columns 0 and 5(i + 1) survive. Output patterns
  // grow from 2 to n + 1 columns, across the switch at 256 / 16 = 16, and
  // integer values keep the reference exact.
  const int64_t n = 48;
  const int64_t l = 256;
  DenseMatrix da(n, n);
  DenseMatrix db(n, l);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k <= i; ++k) da.Set(i, k, k % 2 == 0 ? 1.0 : -1.0);
    db.Set(i, 5 * i, 2.0);
    db.Set(i, 5 * i + 5, 2.0);
  }
  const CsrMatrix a = CsrMatrix::FromDense(da);
  const CsrMatrix b = CsrMatrix::FromDense(db);
  const CsrMatrix expected = CsrMatrix::FromDense(ReferenceProduct(da, db));
  ASSERT_EQ(2 * n, expected.NumNonZeros());
  EXPECT_TRUE(CsrBitIdentical(MultiplySparseSparse(a, b), expected));
  ThreadPool pool(4);
  ParallelConfig config;
  config.num_threads = 4;
  config.min_rows_per_task = 5;
  EXPECT_TRUE(
      CsrBitIdentical(MultiplySparseSparse(a, b, config, &pool), expected));
}

// Operand pairs of every format combination whose work, as Multiply
// measures it, lands below or above kParallelProductFlops; the sparse x
// sparse pairs cover both a sparse and a dense stored output.
std::vector<std::pair<Matrix, Matrix>> ThresholdCases(bool above) {
  Rng rng(above ? 31 : 32);
  std::vector<std::pair<Matrix, Matrix>> cases;
  auto sparse = [&rng](int64_t n, double density) {
    return Matrix::Sparse(GenerateUniformSparse(n, n, density, rng));
  };
  auto dense = [&rng](int64_t n, double density) {
    return Matrix::Dense(GenerateUniformSparse(n, n, density, rng).ToDense());
  };
  if (above) {
    cases.emplace_back(sparse(2048, 0.005), sparse(2048, 0.005));
    cases.emplace_back(sparse(256, 0.3), sparse(256, 0.3));
    cases.emplace_back(sparse(256, 0.1), dense(256, 0.6));
    cases.emplace_back(dense(256, 0.6), sparse(256, 0.1));
    cases.emplace_back(dense(64, 0.9), dense(64, 0.9));
  } else {
    cases.emplace_back(sparse(2048, 0.0035), sparse(2048, 0.0035));
    cases.emplace_back(sparse(160, 0.25), sparse(160, 0.1));
    cases.emplace_back(sparse(96, 0.1), dense(96, 0.6));
    cases.emplace_back(dense(96, 0.6), sparse(96, 0.1));
    cases.emplace_back(dense(48, 0.9), dense(48, 0.9));
  }
  return cases;
}

double CaseWork(const Matrix& a, const Matrix& b) {
  if (!a.is_dense() && !b.is_dense()) {
    return static_cast<double>(Flops(a.csr(), b.csr()));
  }
  if (!a.is_dense()) {
    return static_cast<double>(a.NumNonZeros()) * static_cast<double>(b.cols());
  }
  if (!b.is_dense()) {
    return static_cast<double>(a.rows()) * static_cast<double>(b.NumNonZeros());
  }
  return static_cast<double>(a.rows()) * static_cast<double>(a.cols()) *
         static_cast<double>(b.cols());
}

TEST(ProductTest, PooledMultiplyIsBitIdenticalOnBothSidesOfThreshold) {
  for (bool above : {false, true}) {
    const auto cases = ThresholdCases(above);
    for (size_t c = 0; c < cases.size(); ++c) {
      const Matrix& a = cases[c].first;
      const Matrix& b = cases[c].second;
      const double work = CaseWork(a, b);
      const double threshold = static_cast<double>(kParallelProductFlops);
      if (above) {
        ASSERT_GE(work, threshold) << "case " << c;
      } else {
        ASSERT_LT(work, threshold) << "case " << c;
      }
      const Matrix sequential = Multiply(a, b);
      if (c < 2) {
        EXPECT_EQ(c == 1, sequential.is_dense()) << "case " << c;
      }
      for (int threads : {1, 2, 4, 7}) {
        ThreadPool pool(threads);
        EXPECT_TRUE(MatrixBitIdentical(sequential, Multiply(a, b, &pool)))
            << "above=" << above << " case " << c << " threads=" << threads;
      }
    }
  }
}

TEST(ProductTest, ConsumingMultiplyReusesSoleDenseStorage) {
  Rng rng(33);
  const DenseMatrix d = GenerateUniformSparse(64, 48, 0.7, rng).ToDense();
  const Matrix s = Matrix::Sparse(GenerateUniformSparse(48, 48, 0.2, rng));
  const Matrix expected = Multiply(Matrix::Dense(d), s);
  ASSERT_TRUE(expected.is_dense());

  Matrix sole = Matrix::Dense(d);
  const double* storage = sole.dense().data();
  const Matrix in_place = Multiply(std::move(sole), s);
  EXPECT_TRUE(MatrixBitIdentical(expected, in_place));
  EXPECT_EQ(storage, in_place.dense().data());

  // Shared storage is never written: the other owner keeps its values.
  Matrix shared = Matrix::Dense(d);
  const Matrix other_owner = shared;
  const Matrix out = Multiply(std::move(shared), s);
  EXPECT_TRUE(MatrixBitIdentical(expected, out));
  EXPECT_NE(other_owner.dense().data(), out.dense().data());
  EXPECT_TRUE(DenseBitIdentical(other_owner.dense(), d));
}

TEST(ProductTest, ReleaseDenseOnlyForSoleDenseOwner) {
  Rng rng(34);
  Matrix sparse = Matrix::Sparse(GenerateUniformSparse(8, 8, 0.2, rng));
  EXPECT_FALSE(std::move(sparse).ReleaseDense().has_value());
  EXPECT_FALSE(sparse.is_dense());  // left unchanged
  EXPECT_EQ(8, sparse.rows());

  const DenseMatrix values = GenerateDense(8, 8, rng);
  Matrix dense = Matrix::Dense(values);
  std::optional<Matrix> copy = dense;
  EXPECT_FALSE(std::move(dense).ReleaseDense().has_value());
  ASSERT_TRUE(dense.is_dense());  // left unchanged: `copy` shares it
  EXPECT_TRUE(DenseBitIdentical(dense.dense(), values));

  copy.reset();
  std::optional<DenseMatrix> released = std::move(dense).ReleaseDense();
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(DenseBitIdentical(*released, values));
}

// All four kernels must agree with the reference product for every format
// pairing and a sweep of sparsities.
struct KernelCase {
  double sparsity_a;
  double sparsity_b;
};

class ProductKernelTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ProductKernelTest, AllKernelsAgree) {
  const auto [sa, sb] = GetParam();
  Rng rng(7);
  CsrMatrix a = GenerateUniformSparse(23, 31, sa, rng);
  CsrMatrix b = GenerateUniformSparse(31, 17, sb, rng);
  DenseMatrix da = a.ToDense();
  DenseMatrix db = b.ToDense();
  const DenseMatrix expected = ReferenceProduct(da, db);

  EXPECT_TRUE(MultiplyDenseDense(da, db).Equals(expected));
  EXPECT_TRUE(MultiplySparseDense(a, db).Equals(expected));
  EXPECT_TRUE(MultiplyDenseSparse(da, b).Equals(expected));
  // Sparse-sparse output may drop numerically-cancelled entries; values here
  // are positive so results match exactly as CSR.
  EXPECT_TRUE(
      MultiplySparseSparse(a, b).Equals(CsrMatrix::FromDense(expected)));
}

TEST_P(ProductKernelTest, PooledMixedKernelsMatchOneThread) {
  const auto [sa, sb] = GetParam();
  Rng rng(8);
  const CsrMatrix a = GenerateUniformSparse(61, 37, sa, rng);
  const CsrMatrix b = GenerateUniformSparse(37, 37, sb, rng);
  const DenseMatrix da = a.ToDense();
  const DenseMatrix db = b.ToDense();
  const DenseMatrix sparse_dense = MultiplySparseDense(a, db);
  const DenseMatrix dense_sparse = MultiplyDenseSparse(da, b);
  for (int threads : {2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(
        DenseBitIdentical(sparse_dense, MultiplySparseDense(a, db, &pool)))
        << "threads=" << threads;
    EXPECT_TRUE(
        DenseBitIdentical(dense_sparse, MultiplyDenseSparse(da, b, &pool)))
        << "threads=" << threads;
    DenseMatrix in_place = da;
    MultiplyDenseSparseInPlace(in_place, b, &pool);
    EXPECT_TRUE(DenseBitIdentical(dense_sparse, in_place))
        << "threads=" << threads;
  }
  DenseMatrix in_place = da;
  MultiplyDenseSparseInPlace(in_place, b);
  EXPECT_TRUE(DenseBitIdentical(dense_sparse, in_place));
}

INSTANTIATE_TEST_SUITE_P(
    SparsitySweep, ProductKernelTest,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.3, 1.0),
                       ::testing::Values(0.0, 0.05, 0.3, 1.0)));

// ---- Sketch-guided kernels (PR 5) ----

// Per-row bounds/estimates for the guided kernel, as the evaluator builds
// them.
void RowHints(const CsrMatrix& a, const CsrMatrix& b,
              std::vector<int64_t>* upper, std::vector<double>* estimate) {
  for (const RowProductEstimate& r :
       EstimateProductRows(a, MncSketch::FromCsr(b))) {
    upper->push_back(r.upper_bound);
    estimate->push_back(r.estimate);
  }
}

ParallelConfig GuidedTestConfig(int threads) {
  ParallelConfig config;
  config.num_threads = threads;
  config.min_rows_per_task = 8;
  return config;
}

TEST(GuidedProductTest, MatchesBlindWithExactBounds) {
  Rng rng(11);
  const CsrMatrix a = GenerateUniformSparse(80, 70, 0.08, rng);
  const CsrMatrix b = GenerateUniformSparse(70, 90, 0.08, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  std::vector<int64_t> upper;
  std::vector<double> estimate;
  RowHints(a, b, &upper, &estimate);
  const GuidedProductOptions opts;

  GuidedExecStats seq_stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         ParallelConfig{}, nullptr, &seq_stats)
                  .Equals(blind));
  EXPECT_EQ(seq_stats.single_pass, 1);
  EXPECT_EQ(seq_stats.overflow_fallbacks, 0);

  ThreadPool pool(4);
  GuidedExecStats par_stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         GuidedTestConfig(4), &pool,
                                         &par_stats)
                  .Equals(blind));
  EXPECT_EQ(par_stats.single_pass, 1);
  EXPECT_EQ(par_stats.overflow_fallbacks, 0);
  EXPECT_EQ(par_stats.two_pass_fallbacks, 0);
}

TEST(GuidedProductTest, LyingBoundsOverflowIntoTwoPassRecompute) {
  // All-zero "bounds" (a propagated sketch can under-estimate) must trip the
  // overflow detection of the parallel single-pass fill and recompute via
  // the two-pass kernel without changing the result.
  Rng rng(13);
  const CsrMatrix a = GenerateUniformSparse(60, 60, 0.1, rng);
  const CsrMatrix b = GenerateUniformSparse(60, 60, 0.1, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  const std::vector<int64_t> zeros(60, 0);

  ThreadPool pool(4);
  GuidedExecStats stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, zeros, {},
                                         GuidedProductOptions{},
                                         GuidedTestConfig(4), &pool, &stats)
                  .Equals(blind));
  EXPECT_EQ(stats.overflow_fallbacks, 1);
  EXPECT_EQ(stats.single_pass, 0);
}

TEST(GuidedProductTest, ZeroBudgetFallsBackToTwoPass) {
  Rng rng(17);
  const CsrMatrix a = GenerateUniformSparse(50, 50, 0.1, rng);
  const CsrMatrix b = GenerateUniformSparse(50, 50, 0.1, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  std::vector<int64_t> upper;
  std::vector<double> estimate;
  RowHints(a, b, &upper, &estimate);
  GuidedProductOptions opts;
  opts.single_pass_budget_bytes = 0;

  ThreadPool pool(4);
  GuidedExecStats stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         GuidedTestConfig(4), &pool, &stats)
                  .Equals(blind));
  EXPECT_EQ(stats.two_pass_fallbacks, 1);
  EXPECT_EQ(stats.single_pass, 0);
}

TEST(GuidedProductTest, MergeAccumulatorBitIdenticalToScatter) {
  Rng rng(19);
  const CsrMatrix a = GenerateUniformSparse(64, 64, 0.06, rng);
  const CsrMatrix b = GenerateUniformSparse(64, 64, 0.06, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  std::vector<int64_t> upper;
  std::vector<double> estimate;
  RowHints(a, b, &upper, &estimate);

  // Route everything through the sorted-merge accumulator, then everything
  // through the scatter accumulator (a negative threshold excludes even
  // empty rows, whose estimate is 0); both must equal the blind kernel.
  for (int64_t merge_max : {int64_t{1} << 20, int64_t{-1}}) {
    GuidedProductOptions opts;
    opts.merge_accum_max_nnz = merge_max;
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      GuidedExecStats stats;
      EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                             GuidedTestConfig(threads), &pool,
                                             &stats)
                      .Equals(blind))
          << "merge_max=" << merge_max << " threads=" << threads;
      if (merge_max > 0) {
        EXPECT_GT(stats.merge_rows, 0) << "threads=" << threads;
        EXPECT_EQ(stats.scatter_rows, 0) << "threads=" << threads;
      } else {
        EXPECT_EQ(stats.merge_rows, 0) << "threads=" << threads;
        EXPECT_GT(stats.scatter_rows, 0) << "threads=" << threads;
      }
    }
  }
}

TEST(GuidedProductTest, DenseDirectMatchesCsrDetourBitwise) {
  Rng rng(23);
  const CsrMatrix a = GenerateUniformSparse(50, 40, 0.3, rng);
  const CsrMatrix b = GenerateUniformSparse(40, 45, 0.3, rng);
  const DenseMatrix detour = MultiplySparseSparse(a, b).ToDense();
  EXPECT_TRUE(MultiplySparseSparseDense(a, b).Equals(detour));
  ThreadPool pool(3);
  EXPECT_TRUE(MultiplySparseSparseDense(a, b, &pool).Equals(detour));
}

TEST(GuidedProductTest, BlindReserveModelIsPowerOfTwoSized) {
  EXPECT_EQ(BlindReserveBytesModel(0), 0);
  EXPECT_EQ(BlindReserveBytesModel(1), 16);
  EXPECT_EQ(BlindReserveBytesModel(5), 16 * 8);
  EXPECT_EQ(BlindReserveBytesModel(8), 16 * 8);
  EXPECT_EQ(BlindReserveBytesModel(9), 16 * 16);
}

}  // namespace
}  // namespace mnc
