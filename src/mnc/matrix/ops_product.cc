#include "mnc/matrix/ops_product.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "mnc/kernels/kernels.h"
#include "mnc/util/arena.h"

namespace mnc {

CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t l = b.cols();

  std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
  std::vector<int64_t> col_idx;
  std::vector<double> values;

  // Gustavson: per output row, scatter-accumulate into a dense accumulator
  // with an occupancy list, then gather in ascending column order. Scratch
  // comes from the pooled arena (clean-buffer invariant: the gather re-zeroes
  // exactly the touched entries).
  ScratchPool::Lease lease = ScratchPool::Global().Acquire();
  lease->EnsureScatterCols(l);
  double* acc = lease->scatter_acc();
  char* seen = lease->scatter_seen();
  std::vector<int64_t>& occupied = lease->scatter_list();

  for (int64_t i = 0; i < m; ++i) {
    const auto a_idx = a.RowIndices(i);
    const auto a_val = a.RowValues(i);
    for (size_t ka = 0; ka < a_idx.size(); ++ka) {
      const int64_t k = a_idx[ka];
      const auto b_idx = b.RowIndices(k);
      const auto b_val = b.RowValues(k);
      kernels::SpGemmScatterRow(b_idx.data(), b_val.data(),
                                static_cast<int64_t>(b_idx.size()), a_val[ka],
                                acc, seen, occupied);
    }
    const size_t base = col_idx.size();
    col_idx.resize(base + occupied.size());
    values.resize(base + occupied.size());
    const int64_t written = kernels::SpGemmGatherRow(
        occupied, l, acc, seen, col_idx.data() + base, values.data() + base);
    col_idx.resize(base + static_cast<size_t>(written));
    values.resize(base + static_cast<size_t>(written));
    row_ptr[static_cast<size_t>(i) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix(m, l, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

namespace {

// Runs fn over contiguous ranges of [0, rows): split across the pool when
// one is given (a few ranges per thread, so skewed rows still balance),
// else in one call. Callers write disjoint output rows, so the split never
// changes a value.
void ForRowRanges(ThreadPool* pool, int64_t rows,
                  const std::function<void(int64_t, int64_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(0, rows, /*grain=*/1, fn);
  } else {
    fn(0, rows);
  }
}

// Symbolic pass shared by the parallel SpGEMM and the parallel exact nnz:
// fills row_nnz[i] with the number of non-zero columns reachable in output
// row i (pattern only — no values, so explicit numeric cancellation is not
// detected here; the fill pass below compacts cancelled entries the same way
// the sequential kernel does, by value). For pattern counting the two passes
// agree because ProductNnzExact is also pattern-based.
void SymbolicRowCounts(const CsrMatrix& a, const CsrMatrix& b,
                       const ParallelConfig& config, ThreadPool* pool,
                       std::vector<int64_t>& row_nnz) {
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  row_nnz.assign(static_cast<size_t>(m), 0);
  ParallelForBlocks(pool, config, m,
                    [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    // Per-worker scratch from the pooled arena — no per-block O(cols)
    // allocation/zeroing.
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    lease->EnsureScatterCols(l);
    char* seen = lease->scatter_seen();
    std::vector<int64_t>& occupied = lease->scatter_list();
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t k : a.RowIndices(i)) {
        const auto b_idx = b.RowIndices(k);
        kernels::SpGemmSymbolicRow(b_idx.data(),
                                   static_cast<int64_t>(b_idx.size()), seen,
                                   occupied);
      }
      row_nnz[static_cast<size_t>(i)] =
          kernels::SpGemmResetSymbolicRow(occupied, seen);
    }
  });
}

}  // namespace

CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b,
                               const ParallelConfig& orig, ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  // Calibrated dispatch: drop to the sequential kernel below the measured
  // crossover (bit-identical; each row's output is computed independently,
  // so a calibrated grain is also safe).
  const ParallelConfig config =
      orig.ForStage(TunedStage::kSpGemm, a.rows() + a.NumNonZeros());
  if (!config.enabled() || pool == nullptr) {
    return MultiplySparseSparse(a, b);
  }
  const int64_t m = a.rows();
  const int64_t l = b.cols();

  // Pass 1 (symbolic): per-row pattern counts, in parallel.
  std::vector<int64_t> pattern_nnz;
  SymbolicRowCounts(a, b, config, pool, pattern_nnz);

  // Exclusive scan: row i's entries may occupy [scan[i], scan[i+1]). The
  // pattern count is an upper bound on the numeric count (values that cancel
  // to exactly 0.0 are dropped by the fill pass, as in the sequential
  // kernel), so rows are filled into provisional slices and compacted after.
  std::vector<int64_t> scan(static_cast<size_t>(m) + 1, 0);
  for (int64_t i = 0; i < m; ++i) {
    scan[static_cast<size_t>(i) + 1] =
        scan[static_cast<size_t>(i)] + pattern_nnz[static_cast<size_t>(i)];
  }
  const int64_t pattern_total = scan[static_cast<size_t>(m)];

  std::vector<int64_t> col_idx(static_cast<size_t>(pattern_total));
  std::vector<double> values(static_cast<size_t>(pattern_total));
  std::vector<int64_t> row_nnz(static_cast<size_t>(m), 0);

  // Pass 2 (fill): each block scatters into a thread-local accumulator and
  // gathers ascending entries into its rows' disjoint slices — identical
  // per-row arithmetic to the sequential kernel.
  ParallelForBlocks(pool, config, m,
                    [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    // Per-worker scratch from the pooled arena instead of fresh O(cols)
    // acc/seen vectors per block.
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    lease->EnsureScatterCols(l);
    double* acc = lease->scatter_acc();
    char* seen = lease->scatter_seen();
    std::vector<int64_t>& occupied = lease->scatter_list();
    for (int64_t i = lo; i < hi; ++i) {
      const auto a_idx = a.RowIndices(i);
      const auto a_val = a.RowValues(i);
      for (size_t ka = 0; ka < a_idx.size(); ++ka) {
        const int64_t k = a_idx[ka];
        const auto b_idx = b.RowIndices(k);
        const auto b_val = b.RowValues(k);
        kernels::SpGemmScatterRow(b_idx.data(), b_val.data(),
                                  static_cast<int64_t>(b_idx.size()),
                                  a_val[ka], acc, seen, occupied);
      }
      const int64_t base = scan[static_cast<size_t>(i)];
      row_nnz[static_cast<size_t>(i)] = kernels::SpGemmGatherRow(
          occupied, l, acc, seen, col_idx.data() + base, values.data() + base);
    }
  });

  // Compact the provisional slices into final CSR (cheap sequential copy;
  // no-op-sized when nothing cancelled).
  std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
  for (int64_t i = 0; i < m; ++i) {
    row_ptr[static_cast<size_t>(i) + 1] =
        row_ptr[static_cast<size_t>(i)] + row_nnz[static_cast<size_t>(i)];
  }
  const int64_t total = row_ptr[static_cast<size_t>(m)];
  if (total != pattern_total) {
    std::vector<int64_t> packed_idx(static_cast<size_t>(total));
    std::vector<double> packed_val(static_cast<size_t>(total));
    for (int64_t i = 0; i < m; ++i) {
      const int64_t src = scan[static_cast<size_t>(i)];
      const int64_t dst = row_ptr[static_cast<size_t>(i)];
      const int64_t cnt = row_nnz[static_cast<size_t>(i)];
      std::copy_n(col_idx.begin() + src, cnt, packed_idx.begin() + dst);
      std::copy_n(values.begin() + src, cnt, packed_val.begin() + dst);
    }
    col_idx = std::move(packed_idx);
    values = std::move(packed_val);
  }
  return CsrMatrix(m, l, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

DenseMatrix MultiplyDenseDense(const DenseMatrix& a, const DenseMatrix& b,
                               ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);
  ForRowRanges(pool, m, [&](int64_t begin, int64_t end) {
    // i-k-j loop order: streams over B rows, vectorizes the inner j loop.
    for (int64_t i = begin; i < end; ++i) {
      double* ci = c.row(i);
      const double* ai = a.row(i);
      for (int64_t k = 0; k < n; ++k) {
        const double av = ai[k];
        if (av == 0.0) continue;
        const double* bk = b.row(k);
        for (int64_t j = 0; j < l; ++j) {
          ci[j] += av * bk[j];
        }
      }
    }
  });
  return c;
}

namespace {

// ci += sum over k ascending of ai[k] * B_k, skipping zero ai[k]: one output
// row of dense x sparse, shared by the in-place and out-of-place kernels.
void DenseSparseRow(const double* ai, const CsrMatrix& b, double* ci) {
  for (int64_t k = 0; k < b.rows(); ++k) {
    const double av = ai[k];
    if (av == 0.0) continue;
    const auto b_idx = b.RowIndices(k);
    const auto b_val = b.RowValues(k);
    for (size_t kb = 0; kb < b_idx.size(); ++kb) {
      ci[b_idx[kb]] += av * b_val[kb];
    }
  }
}

}  // namespace

DenseMatrix MultiplySparseDense(const CsrMatrix& a, const DenseMatrix& b,
                                ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t l = b.cols();
  DenseMatrix c(a.rows(), l);
  ForRowRanges(pool, a.rows(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double* ci = c.row(i);
      const auto a_idx = a.RowIndices(i);
      const auto a_val = a.RowValues(i);
      for (size_t ka = 0; ka < a_idx.size(); ++ka) {
        const double av = a_val[ka];
        const double* bk = b.row(a_idx[ka]);
        for (int64_t j = 0; j < l; ++j) {
          ci[j] += av * bk[j];
        }
      }
    }
  });
  return c;
}

DenseMatrix MultiplyDenseSparse(const DenseMatrix& a, const CsrMatrix& b,
                                ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix c(a.rows(), b.cols());
  ForRowRanges(pool, a.rows(), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) DenseSparseRow(a.row(i), b, c.row(i));
  });
  return c;
}

void MultiplyDenseSparseInPlace(DenseMatrix& a, const CsrMatrix& b,
                                ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  MNC_CHECK_EQ(b.rows(), b.cols());
  const int64_t n = a.cols();
  ForRowRanges(pool, a.rows(), [&](int64_t begin, int64_t end) {
    std::vector<double> stage(static_cast<size_t>(n));
    for (int64_t i = begin; i < end; ++i) {
      std::fill(stage.begin(), stage.end(), 0.0);
      DenseSparseRow(a.row(i), b, stage.data());
      std::copy(stage.begin(), stage.end(), a.row(i));
    }
  });
}

void GuidedExecStats::MergeFrom(const GuidedExecStats& other) {
  guided_products += other.guided_products;
  single_pass += other.single_pass;
  two_pass_fallbacks += other.two_pass_fallbacks;
  overflow_fallbacks += other.overflow_fallbacks;
  dense_direct += other.dense_direct;
  merge_rows += other.merge_rows;
  scatter_rows += other.scatter_rows;
  guided_reserve_bytes += other.guided_reserve_bytes;
  blind_reserve_bytes += other.blind_reserve_bytes;
}

int64_t BlindReserveBytesModel(int64_t nnz) {
  if (nnz <= 0) return 0;
  int64_t cap = 1;
  while (cap < nnz) cap <<= 1;
  return 16 * cap;  // 8B value + 8B column index per entry
}

namespace {

// Sorted small-row merge accumulator: materializes every (column, product)
// contribution of one output row, stable-sorts by column, and
// run-accumulates into out_idx/out_val. The stable sort preserves the
// ascending-k contribution order within each column, and each run sums the
// same products in the same order into a 0.0-seeded accumulator as the
// scatter kernel does — so the emitted values are bit-identical to
// scatter + gather, including the dropped exactly-cancelled runs. Returns
// the entry count, or -1 when the row needs more than `cap` slots.
int64_t SpGemmMergeRow(const CsrMatrix& a, const CsrMatrix& b, int64_t i,
                       std::vector<std::pair<int64_t, double>>& pairs,
                       int64_t* out_idx, double* out_val, int64_t cap) {
  pairs.clear();
  const auto a_idx = a.RowIndices(i);
  const auto a_val = a.RowValues(i);
  for (size_t ka = 0; ka < a_idx.size(); ++ka) {
    const double av = a_val[ka];
    const auto b_idx = b.RowIndices(a_idx[ka]);
    const auto b_val = b.RowValues(a_idx[ka]);
    for (size_t t = 0; t < b_idx.size(); ++t) {
      pairs.emplace_back(b_idx[t], av * b_val[t]);
    }
  }
  std::stable_sort(
      pairs.begin(), pairs.end(),
      [](const std::pair<int64_t, double>& x,
         const std::pair<int64_t, double>& y) { return x.first < y.first; });
  int64_t written = 0;
  size_t t = 0;
  while (t < pairs.size()) {
    const int64_t col = pairs[t].first;
    double v = 0.0;
    for (; t < pairs.size() && pairs[t].first == col; ++t) v += pairs[t].second;
    if (v != 0.0) {
      if (written == cap) return -1;
      out_idx[written] = col;
      out_val[written] = v;
      ++written;
    }
  }
  return written;
}

// FLOP count (= pattern contributions) of output row i — the exact guard
// for the merge-accumulator choice, O(nnz(A_i)).
int64_t RowFlops(const CsrMatrix& a, const CsrMatrix& b, int64_t i) {
  int64_t flops = 0;
  for (int64_t k : a.RowIndices(i)) flops += b.RowNnz(k);
  return flops;
}

}  // namespace

CsrMatrix MultiplySparseSparseGuided(
    const CsrMatrix& a, const CsrMatrix& b,
    const std::vector<int64_t>& row_upper,
    const std::vector<double>& row_estimate, const GuidedProductOptions& opts,
    const ParallelConfig& orig, ThreadPool* pool, GuidedExecStats* stats) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  // Same calibrated seq-vs-par dispatch as the blind parallel SpGEMM.
  const ParallelConfig config =
      orig.ForStage(TunedStage::kSpGemm, a.rows() + a.NumNonZeros());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  MNC_CHECK_EQ(static_cast<int64_t>(row_upper.size()), m);
  GuidedExecStats local;
  local.guided_products = 1;

  // Merge-accumulator choice: triggered by the *estimated* row population
  // (the bound when no estimate is supplied), guarded by the exact FLOP
  // count so a badly colliding row cannot make the merge sort expensive.
  const int64_t merge_max = opts.merge_accum_max_nnz;
  auto use_merge = [&](int64_t i, int64_t flops) {
    const double est = row_estimate.empty()
                           ? static_cast<double>(row_upper[static_cast<size_t>(i)])
                           : row_estimate[static_cast<size_t>(i)];
    return est <= static_cast<double>(merge_max) && flops <= 8 * merge_max;
  };
  std::atomic<int64_t> merge_rows{0};
  std::atomic<int64_t> scatter_rows{0};

  const bool parallel = config.enabled() && pool != nullptr;
  if (!parallel) {
    // Sequential: the bounds become the pre-allocation hint (capped by the
    // estimate total when available — bounds can grossly over-reserve on
    // hub-heavy inputs) and rows append with per-row accumulator dispatch.
    int64_t ub_total = 0;
    for (int64_t ub : row_upper) ub_total += ub;
    int64_t hint = ub_total;
    if (!row_estimate.empty()) {
      double est_total = 0.0;
      for (double e : row_estimate) est_total += e;
      hint = std::min(hint, static_cast<int64_t>(est_total) + 1);
    }
    hint = std::min(hint, m * l);

    std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
    std::vector<int64_t> col_idx;
    std::vector<double> values;
    col_idx.reserve(static_cast<size_t>(hint));
    values.reserve(static_cast<size_t>(hint));

    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    lease->EnsureScatterCols(l);
    double* acc = lease->scatter_acc();
    char* seen = lease->scatter_seen();
    std::vector<int64_t>& occupied = lease->scatter_list();
    std::vector<std::pair<int64_t, double>>& pairs = lease->merge_pairs();

    for (int64_t i = 0; i < m; ++i) {
      const int64_t flops = RowFlops(a, b, i);
      const size_t base = col_idx.size();
      int64_t written = 0;
      if (use_merge(i, flops)) {
        merge_rows.fetch_add(1, std::memory_order_relaxed);
        col_idx.resize(base + static_cast<size_t>(flops));
        values.resize(base + static_cast<size_t>(flops));
        written = SpGemmMergeRow(a, b, i, pairs, col_idx.data() + base,
                                 values.data() + base, flops);
      } else {
        scatter_rows.fetch_add(1, std::memory_order_relaxed);
        const auto a_idx = a.RowIndices(i);
        const auto a_val = a.RowValues(i);
        for (size_t ka = 0; ka < a_idx.size(); ++ka) {
          const auto b_idx = b.RowIndices(a_idx[ka]);
          const auto b_val = b.RowValues(a_idx[ka]);
          kernels::SpGemmScatterRow(b_idx.data(), b_val.data(),
                                    static_cast<int64_t>(b_idx.size()),
                                    a_val[ka], acc, seen, occupied);
        }
        col_idx.resize(base + occupied.size());
        values.resize(base + occupied.size());
        written = kernels::SpGemmGatherRow(occupied, l, acc, seen,
                                           col_idx.data() + base,
                                           values.data() + base);
      }
      col_idx.resize(base + static_cast<size_t>(written));
      values.resize(base + static_cast<size_t>(written));
      row_ptr[static_cast<size_t>(i) + 1] =
          static_cast<int64_t>(col_idx.size());
    }
    local.single_pass = 1;
    local.merge_rows = merge_rows.load(std::memory_order_relaxed);
    local.scatter_rows = scatter_rows.load(std::memory_order_relaxed);
    local.guided_reserve_bytes = 16 * hint;
    local.blind_reserve_bytes =
        BlindReserveBytesModel(static_cast<int64_t>(col_idx.size()));
    if (stats != nullptr) stats->MergeFrom(local);
    return CsrMatrix(m, l, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
  }

  // Parallel: single-pass fill into bound-sized slices — the symbolic pass
  // of the two-pass kernel is exactly what the sketch bounds replace.
  std::vector<int64_t> scan(static_cast<size_t>(m) + 1, 0);
  for (int64_t i = 0; i < m; ++i) {
    scan[static_cast<size_t>(i) + 1] =
        scan[static_cast<size_t>(i)] + row_upper[static_cast<size_t>(i)];
  }
  const int64_t slice_total = scan[static_cast<size_t>(m)];
  if (16 * slice_total > opts.single_pass_budget_bytes) {
    CsrMatrix result = MultiplySparseSparse(a, b, config, pool);
    local.two_pass_fallbacks = 1;
    local.guided_reserve_bytes = 16 * result.NumNonZeros();
    local.blind_reserve_bytes = 16 * result.NumNonZeros();
    if (stats != nullptr) stats->MergeFrom(local);
    return result;
  }

  std::vector<int64_t> col_idx(static_cast<size_t>(slice_total));
  std::vector<double> values(static_cast<size_t>(slice_total));
  std::vector<int64_t> row_nnz(static_cast<size_t>(m), 0);
  std::atomic<bool> overflow{false};

  ParallelForBlocks(pool, config, m,
                    [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    lease->EnsureScatterCols(l);
    double* acc = lease->scatter_acc();
    char* seen = lease->scatter_seen();
    std::vector<int64_t>& occupied = lease->scatter_list();
    std::vector<std::pair<int64_t, double>>& pairs = lease->merge_pairs();
    int64_t block_merge = 0;
    int64_t block_scatter = 0;
    for (int64_t i = lo; i < hi; ++i) {
      // The result is discarded on overflow, so later rows may bail early.
      if (overflow.load(std::memory_order_relaxed)) break;
      const int64_t base = scan[static_cast<size_t>(i)];
      const int64_t cap = scan[static_cast<size_t>(i) + 1] - base;
      const int64_t flops = RowFlops(a, b, i);
      if (use_merge(i, flops)) {
        ++block_merge;
        const int64_t written =
            SpGemmMergeRow(a, b, i, pairs, col_idx.data() + base,
                           values.data() + base, cap);
        if (written < 0) {
          overflow.store(true, std::memory_order_relaxed);
          break;
        }
        row_nnz[static_cast<size_t>(i)] = written;
      } else {
        ++block_scatter;
        const auto a_idx = a.RowIndices(i);
        const auto a_val = a.RowValues(i);
        for (size_t ka = 0; ka < a_idx.size(); ++ka) {
          const auto b_idx = b.RowIndices(a_idx[ka]);
          const auto b_val = b.RowValues(a_idx[ka]);
          kernels::SpGemmScatterRow(b_idx.data(), b_val.data(),
                                    static_cast<int64_t>(b_idx.size()),
                                    a_val[ka], acc, seen, occupied);
        }
        if (static_cast<int64_t>(occupied.size()) > cap) {
          // Pattern outgrew the (estimated) bound. Restore the clean-buffer
          // invariant before abandoning the pass.
          for (int64_t j : occupied) {
            acc[static_cast<size_t>(j)] = 0.0;
            seen[static_cast<size_t>(j)] = 0;
          }
          occupied.clear();
          overflow.store(true, std::memory_order_relaxed);
          break;
        }
        row_nnz[static_cast<size_t>(i)] = kernels::SpGemmGatherRow(
            occupied, l, acc, seen, col_idx.data() + base,
            values.data() + base);
      }
    }
    merge_rows.fetch_add(block_merge, std::memory_order_relaxed);
    scatter_rows.fetch_add(block_scatter, std::memory_order_relaxed);
  });

  if (overflow.load(std::memory_order_relaxed)) {
    // A bound from a propagated sketch was violated; the two-pass kernel
    // recomputes with exact sizing (bit-identical result).
    CsrMatrix result = MultiplySparseSparse(a, b, config, pool);
    local.overflow_fallbacks = 1;
    local.guided_reserve_bytes =
        16 * slice_total + 16 * result.NumNonZeros();
    local.blind_reserve_bytes = 16 * result.NumNonZeros();
    if (stats != nullptr) stats->MergeFrom(local);
    return result;
  }

  // Compaction, exactly as in the two-pass kernel.
  std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
  for (int64_t i = 0; i < m; ++i) {
    row_ptr[static_cast<size_t>(i) + 1] =
        row_ptr[static_cast<size_t>(i)] + row_nnz[static_cast<size_t>(i)];
  }
  const int64_t total = row_ptr[static_cast<size_t>(m)];
  if (total != slice_total) {
    std::vector<int64_t> packed_idx(static_cast<size_t>(total));
    std::vector<double> packed_val(static_cast<size_t>(total));
    for (int64_t i = 0; i < m; ++i) {
      const int64_t src = scan[static_cast<size_t>(i)];
      const int64_t dst = row_ptr[static_cast<size_t>(i)];
      const int64_t cnt = row_nnz[static_cast<size_t>(i)];
      std::copy_n(col_idx.begin() + src, cnt, packed_idx.begin() + dst);
      std::copy_n(values.begin() + src, cnt, packed_val.begin() + dst);
    }
    col_idx = std::move(packed_idx);
    values = std::move(packed_val);
  }
  local.single_pass = 1;
  local.merge_rows = merge_rows.load(std::memory_order_relaxed);
  local.scatter_rows = scatter_rows.load(std::memory_order_relaxed);
  local.guided_reserve_bytes = 16 * slice_total;
  local.blind_reserve_bytes = BlindReserveBytesModel(total);
  if (stats != nullptr) stats->MergeFrom(local);
  return CsrMatrix(m, l, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

DenseMatrix MultiplySparseSparseDense(const CsrMatrix& a, const CsrMatrix& b,
                                      ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);
  ForRowRanges(pool, m, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double* ci = c.row(i);
      const auto a_idx = a.RowIndices(i);
      const auto a_val = a.RowValues(i);
      for (size_t ka = 0; ka < a_idx.size(); ++ka) {
        const double av = a_val[ka];
        const auto b_idx = b.RowIndices(a_idx[ka]);
        const auto b_val = b.RowValues(a_idx[ka]);
        for (size_t t = 0; t < b_idx.size(); ++t) {
          ci[b_idx[t]] += av * b_val[t];
        }
      }
    }
  });
  return c;
}

namespace {

// Multiply-adds of the kernel Multiply runs for a x b: exact for sparse x
// sparse (sum over A's entries of the matching B row's population), and for
// the products with a dense operand the count when that operand holds no
// zeros — nnz x cols for sparse x dense, rows x nnz for dense x sparse.
// Kept in double: a dense x dense count need not fit in int64.
double ProductWork(const Matrix& a, const Matrix& b) {
  if (!a.is_dense() && !b.is_dense()) {
    int64_t flops = 0;
    for (int64_t k : a.csr().col_idx()) flops += b.csr().RowNnz(k);
    return static_cast<double>(flops);
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

// The pool Multiply hands its kernel: nullptr (sequential) below
// kParallelProductFlops, where a pool round trip costs more than the split
// saves.
ThreadPool* ProductPool(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) return nullptr;
  return ProductWork(a, b) >= static_cast<double>(kParallelProductFlops)
             ? pool
             : nullptr;
}

}  // namespace

Matrix Multiply(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  pool = ProductPool(a, b, pool);
  if (a.is_dense() && b.is_dense()) {
    return Matrix::AutoFromDense(MultiplyDenseDense(a.dense(), b.dense(), pool));
  }
  if (!a.is_dense() && !b.is_dense()) {
    if (pool == nullptr) {
      return Matrix::AutoFromCsr(MultiplySparseSparse(a.csr(), b.csr()));
    }
    // Output rows are independent (a grain-invariant stage), so the blocks
    // are sized from the pool — a few per thread — rather than fixed; a
    // loaded machine profile still decides through ForStage.
    const int64_t tasks = 4 * static_cast<int64_t>(pool->num_threads());
    ParallelConfig config;
    config.num_threads = pool->num_threads();
    config.min_rows_per_task =
        std::max<int64_t>(1, (a.rows() + tasks - 1) / tasks);
    return Matrix::AutoFromCsr(
        MultiplySparseSparse(a.csr(), b.csr(), config, pool));
  }
  if (!a.is_dense()) {
    return Matrix::AutoFromDense(MultiplySparseDense(a.csr(), b.dense(), pool));
  }
  return Matrix::AutoFromDense(MultiplyDenseSparse(a.dense(), b.csr(), pool));
}

Matrix Multiply(Matrix&& a, const Matrix& b, ThreadPool* pool) {
  if (a.is_dense() && !b.is_dense() && a.cols() == b.rows() &&
      b.rows() == b.cols()) {
    ThreadPool* product_pool = ProductPool(a, b, pool);
    if (std::optional<DenseMatrix> owned = std::move(a).ReleaseDense()) {
      MultiplyDenseSparseInPlace(*owned, b.csr(), product_pool);
      return Matrix::AutoFromDense(std::move(*owned));
    }
  }
  return Multiply(std::as_const(a), b, pool);
}

int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  int64_t nnz = 0;
  ScratchPool::Lease lease = ScratchPool::Global().Acquire();
  lease->EnsureScatterCols(l);
  char* seen = lease->scatter_seen();
  std::vector<int64_t>& occupied = lease->scatter_list();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t k : a.RowIndices(i)) {
      const auto b_idx = b.RowIndices(k);
      kernels::SpGemmSymbolicRow(b_idx.data(),
                                 static_cast<int64_t>(b_idx.size()), seen,
                                 occupied);
    }
    nnz += kernels::SpGemmResetSymbolicRow(occupied, seen);
  }
  return nnz;
}

int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b,
                        const ParallelConfig& config, ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  if (!config.enabled() || pool == nullptr) return ProductNnzExact(a, b);
  std::vector<int64_t> row_nnz;
  SymbolicRowCounts(a, b, config, pool, row_nnz);
  int64_t nnz = 0;
  for (int64_t c : row_nnz) nnz += c;
  return nnz;
}

}  // namespace mnc
