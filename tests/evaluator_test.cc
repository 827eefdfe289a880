#include "mnc/ir/evaluator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "mnc/core/mnc_sketch.h"
#include "mnc/matrix/generate.h"
#include "mnc/matrix/ops_ewise.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/matrix/ops_reorg.h"
#include "mnc/util/random.h"
#include "mnc/util/thread_pool.h"

namespace mnc {
namespace {

TEST(EvaluatorTest, LeafEvaluatesToItself) {
  Rng rng(1);
  CsrMatrix m = GenerateUniformSparse(5, 5, 0.3, rng);
  Evaluator eval;
  EXPECT_TRUE(
      eval.Evaluate(ExprNode::Leaf(Matrix::Sparse(m))).AsCsr().Equals(m));
}

TEST(EvaluatorTest, ProductMatchesKernel) {
  Rng rng(2);
  CsrMatrix a = GenerateUniformSparse(10, 12, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(12, 8, 0.2, rng);
  Evaluator eval;
  Matrix c = eval.Evaluate(ExprNode::MatMul(
      ExprNode::Leaf(Matrix::Sparse(a)), ExprNode::Leaf(Matrix::Sparse(b))));
  EXPECT_TRUE(c.AsCsr().Equals(MultiplySparseSparse(a, b)));
}

TEST(EvaluatorTest, AllOpsCompose) {
  Rng rng(3);
  CsrMatrix a = GenerateUniformSparse(6, 6, 0.3, rng);
  CsrMatrix b = GenerateUniformSparse(6, 6, 0.3, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));

  // ((A + B) ⊙ A)^T != 0, reshaped and rebound.
  ExprPtr expr = ExprNode::NotEqualZero(
      ExprNode::Transpose(ExprNode::EWiseMult(ExprNode::EWiseAdd(la, lb),
                                              la)));
  Evaluator eval;
  Matrix result = eval.Evaluate(expr);
  CsrMatrix expected = NotEqualZeroSparse(TransposeSparse(
      MultiplyEWiseSparseSparse(AddSparseSparse(a, b), a)));
  EXPECT_TRUE(result.AsCsr().Equals(expected));
}

TEST(EvaluatorTest, SharedSubexpressionEvaluatedOnce) {
  Rng rng(4);
  CsrMatrix g = GenerateUniformSparse(20, 20, 0.1, rng);
  ExprPtr lg = ExprNode::Leaf(Matrix::Sparse(g));
  ExprPtr gg = ExprNode::MatMul(lg, lg);
  // Both parents reference gg; the evaluator must reuse the cached result —
  // verified behaviorally by value equality of the two paths.
  ExprPtr left = ExprNode::MatMul(gg, lg);
  ExprPtr right = ExprNode::MatMul(gg, lg);
  Evaluator eval;
  Matrix l = eval.Evaluate(left);
  Matrix r = eval.Evaluate(right);
  EXPECT_TRUE(l.EqualsLogically(r));
}

TEST(EvaluatorTest, CachePersistsAcrossRoots) {
  Rng rng(5);
  CsrMatrix g = GenerateUniformSparse(15, 15, 0.15, rng);
  ExprPtr lg = ExprNode::Leaf(Matrix::Sparse(g));
  ExprPtr gg = ExprNode::MatMul(lg, lg);
  ExprPtr ggg = ExprNode::MatMul(gg, lg);
  Evaluator eval;
  Matrix first = eval.Evaluate(gg);
  Matrix second = eval.Evaluate(ggg);  // reuses cached gg
  EXPECT_TRUE(second.AsCsr().Equals(
      MultiplySparseSparse(first.AsCsr(), g)));
}

TEST(EvaluatorTest, DeepLeftChainIterative) {
  // A 200-product chain of permutations — exercises the iterative
  // post-order (no stack overflow) and exactness.
  Rng rng(6);
  CsrMatrix p = GeneratePermutation(50, rng);
  ExprPtr lp = ExprNode::Leaf(Matrix::Sparse(p));
  Rng rng2(7);
  CsrMatrix x = GenerateUniformSparse(50, 20, 0.2, rng2);
  ExprPtr acc = ExprNode::Leaf(Matrix::Sparse(x));
  for (int i = 0; i < 200; ++i) {
    acc = ExprNode::MatMul(lp, acc);
  }
  Evaluator eval;
  Matrix result = eval.Evaluate(acc);
  EXPECT_EQ(result.NumNonZeros(), x.NumNonZeros());
}

TEST(EvaluatorTest, CacheSurvivesNodeChurn) {
  // Regression test: cached results key on node identity; short-lived
  // expression nodes from earlier Evaluate() calls must not alias new nodes
  // allocated at recycled addresses. Build and evaluate many transient
  // chains against one long-lived Evaluator.
  Rng rng(9);
  std::vector<ExprPtr> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(ExprNode::Leaf(
        Matrix::Sparse(GenerateUniformSparse(12, 12, 0.3, rng))));
  }
  Evaluator eval;
  for (int round = 0; round < 50; ++round) {
    // Fresh left-deep chain over varying windows each round.
    const size_t start = static_cast<size_t>(round % 3);
    ExprPtr acc = leaves[start];
    for (size_t k = start + 1; k < leaves.size(); ++k) {
      acc = ExprNode::MatMul(acc, leaves[k]);
    }
    const Matrix got = eval.Evaluate(acc);
    // Independent fresh evaluation must agree.
    Evaluator fresh;
    EXPECT_TRUE(got.EqualsLogically(fresh.Evaluate(acc))) << round;
  }
}

TEST(EvaluatorTest, GuidedOffLeavesStatsAndSketchesEmpty) {
  // guided=false is the default construction path; no sketches may be built
  // and every counter must stay zero — the blind history is untouched.
  Rng rng(20);
  CsrMatrix a = GenerateUniformSparse(16, 16, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(16, 16, 0.2, rng);
  ExprPtr expr = ExprNode::MatMul(ExprNode::Leaf(Matrix::Sparse(a)),
                                  ExprNode::Leaf(Matrix::Sparse(b)));
  Evaluator eval;
  eval.Evaluate(expr);
  EXPECT_EQ(eval.guided_stats().guided_products, 0);
  EXPECT_EQ(eval.guided_stats().single_pass, 0);
  EXPECT_EQ(eval.guided_stats().dense_direct, 0);
  EXPECT_EQ(eval.NodeSketch(expr.get()), nullptr);
}

TEST(EvaluatorTest, GuidedMatchesBlindAndPopulatesStats) {
  // Sparse enough that neither product crosses the dense-dispatch
  // threshold: both stay on the guided CSR kernel, which accounts every
  // output row to exactly one accumulator.
  Rng rng(21);
  CsrMatrix a = GenerateUniformSparse(24, 24, 0.05, rng);
  CsrMatrix b = GenerateUniformSparse(24, 24, 0.05, rng);
  CsrMatrix c = GenerateUniformSparse(24, 24, 0.05, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));
  ExprPtr lc = ExprNode::Leaf(Matrix::Sparse(c));
  ExprPtr expr = ExprNode::MatMul(ExprNode::MatMul(la, lb),
                                  ExprNode::EWiseAdd(lc, lc));

  Evaluator blind;
  Matrix expected = blind.Evaluate(expr);

  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator guided(nullptr, opts);
  Matrix got = guided.Evaluate(expr);

  EXPECT_TRUE(got.AsCsr().Equals(expected.AsCsr()));
  // Two sparse-sparse products ran through the guided dispatch.
  EXPECT_EQ(guided.guided_stats().guided_products, 2);
  EXPECT_EQ(guided.guided_stats().merge_rows +
                guided.guided_stats().scatter_rows,
            2 * 24);
  // Every node of the DAG got a sketch, consistent with its result.
  const MncSketch* root_sketch = guided.NodeSketch(expr.get());
  ASSERT_NE(root_sketch, nullptr);
  EXPECT_EQ(root_sketch->rows(), got.rows());
  EXPECT_EQ(root_sketch->cols(), got.cols());
  ASSERT_NE(guided.NodeSketch(la.get()), nullptr);
  // Leaf sketches are exact, built from the matrix itself.
  EXPECT_EQ(guided.NodeSketch(la.get())->nnz(), a.NumNonZeros());
}

TEST(EvaluatorTest, GuidedLeafSketchProviderIsConsulted) {
  Rng rng(22);
  CsrMatrix a = GenerateUniformSparse(12, 12, 0.25, rng);
  CsrMatrix b = GenerateUniformSparse(12, 12, 0.25, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));
  ExprPtr expr = ExprNode::MatMul(la, lb);

  int provider_calls = 0;
  auto precomputed = std::make_shared<const MncSketch>(
      MncSketch::FromMatrix(Matrix::Sparse(a)));
  EvaluatorOptions opts;
  opts.guided = true;
  opts.leaf_sketches = [&](const ExprNode& node)
      -> std::shared_ptr<const MncSketch> {
    ++provider_calls;
    // Serve only the first leaf; the evaluator must build the other itself.
    return &node == la.get() ? precomputed : nullptr;
  };
  Evaluator eval(nullptr, opts);
  Matrix got = eval.Evaluate(expr);

  EXPECT_EQ(provider_calls, 2);
  EXPECT_EQ(eval.NodeSketch(la.get()), precomputed.get());
  ASSERT_NE(eval.NodeSketch(lb.get()), nullptr);
  EXPECT_TRUE(got.AsCsr().Equals(MultiplySparseSparse(a, b)));
}

TEST(EvaluatorTest, GuidedClearCacheDropsSketchesKeepsStats) {
  Rng rng(23);
  CsrMatrix a = GenerateUniformSparse(10, 10, 0.3, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr expr = ExprNode::MatMul(la, la);
  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator eval(nullptr, opts);

  Matrix first = eval.Evaluate(expr);
  ASSERT_NE(eval.NodeSketch(expr.get()), nullptr);
  const int64_t products_after_first = eval.guided_stats().guided_products;
  EXPECT_EQ(products_after_first, 1);

  eval.ClearCache();
  EXPECT_EQ(eval.NodeSketch(expr.get()), nullptr);
  // Counters survive ClearCache (they report lifetime work, like the
  // service's cumulative stats); re-evaluation is bit-identical.
  Matrix second = eval.Evaluate(expr);
  EXPECT_TRUE(second.AsCsr().Equals(first.AsCsr()));
  EXPECT_EQ(eval.guided_stats().guided_products, products_after_first + 1);
}

TEST(EvaluatorTest, GuidedDenseBoundProductComesBackDense) {
  // A dense-ish product (est sparsity >= the dense dispatch threshold) must
  // be produced directly as a DenseMatrix, and still match the blind values.
  Rng rng(24);
  CsrMatrix a = GenerateUniformSparse(32, 32, 0.4, rng);
  CsrMatrix b = GenerateUniformSparse(32, 32, 0.4, rng);
  ExprPtr expr = ExprNode::MatMul(ExprNode::Leaf(Matrix::Sparse(a)),
                                  ExprNode::Leaf(Matrix::Sparse(b)));
  Evaluator blind;
  Matrix expected = blind.Evaluate(expr);

  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator guided(nullptr, opts);
  Matrix got = guided.Evaluate(expr);
  EXPECT_EQ(guided.guided_stats().dense_direct, 1);
  EXPECT_TRUE(got.is_dense());
  EXPECT_TRUE(got.AsCsr().Equals(expected.AsCsr()));
}

TEST(EvaluatorTest, ReshapeAndDiag) {
  Rng rng(8);
  CsrMatrix v = GenerateUniformSparse(9, 1, 0.5, rng);
  ExprPtr diag = ExprNode::Diag(ExprNode::Leaf(Matrix::Sparse(v)));
  ExprPtr reshaped = ExprNode::Reshape(diag, 27, 3);
  Evaluator eval;
  Matrix result = eval.Evaluate(reshaped);
  EXPECT_TRUE(result.AsCsr().Equals(
      ReshapeSparse(DiagVectorToMatrix(v), 27, 3)));
}

// Same stored format and bit-identical contents.
bool BitIdentical(const Matrix& x, const Matrix& y) {
  if (x.is_dense() != y.is_dense() || x.rows() != y.rows() ||
      x.cols() != y.cols()) {
    return false;
  }
  if (x.is_dense()) {
    return std::memcmp(x.dense().data(), y.dense().data(),
                       static_cast<size_t>(x.dense().size()) *
                           sizeof(double)) == 0;
  }
  const CsrMatrix& cx = x.csr();
  const CsrMatrix& cy = y.csr();
  return cx.row_ptr() == cy.row_ptr() && cx.col_idx() == cy.col_idx() &&
         std::memcmp(cx.values().data(), cy.values().data(),
                     cx.values().size() * sizeof(double)) == 0;
}

// Operands of a dense chain: X = S1 S2 comes out dense (300 x 256), and
// S3..S5 are square sparse, so X S3 S4 S5 runs dense x sparse products above
// kParallelProductFlops, each the last consumer of its dense left operand.
struct DenseChainOperands {
  Matrix s1, s2, s3, s4, s5;
};

DenseChainOperands MakeDenseChain(uint64_t seed) {
  Rng rng(seed);
  return {Matrix::Sparse(GenerateUniformSparse(300, 100, 0.2, rng)),
          Matrix::Sparse(GenerateUniformSparse(100, 256, 0.2, rng)),
          Matrix::Sparse(GenerateUniformSparse(256, 256, 0.01, rng)),
          Matrix::Sparse(GenerateUniformSparse(256, 256, 0.01, rng)),
          Matrix::Sparse(GenerateUniformSparse(256, 256, 0.01, rng))};
}

TEST(EvaluatorTest, InPlaceDenseChainMatchesOutOfPlace) {
  const DenseChainOperands op = MakeDenseChain(40);
  // Out of place: every Multiply below takes its operands as lvalues.
  const Matrix x = Multiply(op.s1, op.s2);
  ASSERT_TRUE(x.is_dense());
  const Matrix xs3 = Multiply(x, op.s3);
  const Matrix xs4 = Multiply(xs3, op.s4);
  const Matrix expected = Multiply(xs4, op.s5);
  ASSERT_TRUE(expected.is_dense());

  ExprPtr chain = ExprNode::MatMul(ExprNode::Leaf(op.s1),
                                   ExprNode::Leaf(op.s2));
  for (const Matrix* s : {&op.s3, &op.s4, &op.s5}) {
    chain = ExprNode::MatMul(chain, ExprNode::Leaf(*s));
  }
  Evaluator sequential;
  EXPECT_TRUE(BitIdentical(expected, sequential.Evaluate(chain)));
  for (int threads : {2, 4, 7}) {
    ThreadPool pool(threads);
    Evaluator pooled(&pool);
    EXPECT_TRUE(BitIdentical(expected, pooled.Evaluate(chain)))
        << "threads=" << threads;
  }
}

TEST(EvaluatorTest, DenseLeafIsNeverOverwritten) {
  const DenseChainOperands op = MakeDenseChain(41);
  const Matrix d = Multiply(op.s1, op.s2);
  ASSERT_TRUE(d.is_dense());
  const DenseMatrix before = d.dense();
  ThreadPool pool(4);
  Evaluator eval(&pool);
  const Matrix got = eval.Evaluate(
      ExprNode::MatMul(ExprNode::Leaf(d), ExprNode::Leaf(op.s3)));
  EXPECT_TRUE(BitIdentical(Multiply(d, op.s3), got));
  EXPECT_TRUE(BitIdentical(Matrix::Dense(before), d));
}

TEST(EvaluatorTest, DenseIntermediateWithTwoConsumersIsNotOverwritten) {
  const DenseChainOperands op = MakeDenseChain(42);
  const Matrix x = Multiply(op.s1, op.s2);
  ASSERT_TRUE(x.is_dense());
  const ExprPtr lx = ExprNode::MatMul(ExprNode::Leaf(op.s1),
                                      ExprNode::Leaf(op.s2));
  const ExprPtr l3 = ExprNode::Leaf(op.s3);
  const ExprPtr l4 = ExprNode::Leaf(op.s4);
  // Two products consume X: the first to run must leave X intact for the
  // second.
  const ExprPtr both_products = ExprNode::EWiseAdd(ExprNode::MatMul(lx, l3),
                                                   ExprNode::MatMul(lx, l4));
  // A product and an addition consume X: the product runs first and is not
  // X's last consumer.
  const ExprPtr product_and_add =
      ExprNode::EWiseAdd(ExprNode::MatMul(lx, l3), lx);
  const Matrix expected_products =
      Add(Multiply(x, op.s3), Multiply(x, op.s4));
  const Matrix expected_add = Add(Multiply(x, op.s3), x);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    Evaluator products(&pool);
    EXPECT_TRUE(
        BitIdentical(expected_products, products.Evaluate(both_products)))
        << "threads=" << threads;
    Evaluator add(&pool);
    EXPECT_TRUE(BitIdentical(expected_add, add.Evaluate(product_and_add)))
        << "threads=" << threads;
  }
}

TEST(EvaluatorTest, EarlierDenseRootIsNotOverwrittenByALaterRoot) {
  const DenseChainOperands op = MakeDenseChain(43);
  const ExprPtr x = ExprNode::MatMul(ExprNode::Leaf(op.s1),
                                     ExprNode::Leaf(op.s2));
  const ExprPtr xs3 = ExprNode::MatMul(x, ExprNode::Leaf(op.s3));
  const Matrix expected_x = Multiply(op.s1, op.s2);
  ASSERT_TRUE(expected_x.is_dense());
  const Matrix expected_xs3 = Multiply(expected_x, op.s3);
  ThreadPool pool(4);

  // The caller keeps its copy of the first root.
  Evaluator eval(&pool);
  const Matrix first = eval.Evaluate(x);
  EXPECT_TRUE(BitIdentical(expected_xs3, eval.Evaluate(xs3)));
  EXPECT_TRUE(BitIdentical(expected_x, first));

  // The caller dropped its copy: the cached root is still neither consumed
  // nor recomputed — the same storage comes back, with the same values.
  Evaluator dropped(&pool);
  const void* storage = dropped.Evaluate(x).storage_key();
  EXPECT_TRUE(BitIdentical(expected_xs3, dropped.Evaluate(xs3)));
  const Matrix again = dropped.Evaluate(x);
  EXPECT_EQ(storage, again.storage_key());
  EXPECT_TRUE(BitIdentical(expected_x, again));
}

}  // namespace
}  // namespace mnc
