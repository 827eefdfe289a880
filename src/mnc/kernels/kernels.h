// Vectorized kernel layer for the estimator / SpGEMM hot loops.
//
// The library's five hottest inner loops — the Algorithm 1 histogram dot
// products (Thm 3.1 / Eq. 8), the density-map combine (Eq. 4), the bitset
// word AND/OR + popcount (Eq. 3), the Eq. 11/15 propagation scaling, and the
// Gustavson SpGEMM row scatter/gather — are expressed here as flat
// pointer-based kernels. The data-parallel ones are dispatched through a
// per-process function table (scalar / AVX2 / NEON — see mnc/util/simd.h);
// the scatter-bound SpGEMM row kernels are deliberately scalar on every
// level (AVX2 has no scatter store) and live here so the four previously
// duplicated loops share one implementation.
//
// Determinism contract, per kernel:
//   * dot_counts / dot_counts_diff: vector levels use multiple accumulators,
//     so the result may differ from scalar by float reassociation only. The
//     summands are products of integer counts, hence integer-valued doubles:
//     whenever every partial sum stays below 2^53 the reduction is EXACT and
//     therefore bit-identical across levels (true for all realistic
//     sketches; the differential harness asserts it).
//   * density_combine: bit-identical across levels by construction. The
//     vector path only evaluates the elementwise prologue (convert,
//     subtract, multiply, divide, min — each a single correctly-rounded IEEE
//     operation, identical to scalar); the log1p accumulation runs in scalar
//     source order on the surviving lanes.
//   * scale_counts / ewise_*_est: purely elementwise with the same rounding
//     sequence per element — bit-identical across levels.
//   * bitset word kernels: integer — bit-identical across levels.
//
// Precondition shared by the count kernels: counts are non-negative and
// < 2^51 (the AVX2 int64->double conversion uses the 2^52 bias trick).
// MncSketch count vectors satisfy this by construction for any matrix whose
// dimensions fit in 2^51.

#ifndef MNC_KERNELS_KERNELS_H_
#define MNC_KERNELS_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mnc/util/simd.h"

namespace mnc {
namespace kernels {

// Result of a density-map combine range: the log-space zero-probability
// accumulated over the range, and whether a certain hit (cell_prob >= 1)
// ended the scan early. When `certain` is true the caller must treat the
// range as probability-1 and ignore `log_zero_prob` (matching the scalar
// early break in Eq. 4).
struct CombineAccum {
  double log_zero_prob = 0.0;
  bool certain = false;
};

// The dispatchable kernel table. All pointers are non-null in every table.
struct KernelTable {
  // sum_k double(u[k]) * double(v[k]).
  double (*dot_counts)(const int64_t* u, const int64_t* v, int64_t n);

  // sum_k (double(u[k]) - double(du[k])) * double(v[k]); du == nullptr is
  // treated as all zeros (then identical to dot_counts).
  double (*dot_counts_diff)(const int64_t* u, const int64_t* du,
                            const int64_t* v, int64_t n);

  // Eq. 4 over [0, n): for each k with (u[k]-du[k]) > 0 and (v[k]-dv[k]) > 0
  // accumulates log1p(-min(1, (u-du)(v-dv)/p)) in index order; stops at the
  // first certain hit. du/dv may be nullptr (no offsets). Requires p > 0.
  CombineAccum (*density_combine)(const int64_t* u, const int64_t* du,
                                  const int64_t* v, const int64_t* dv,
                                  int64_t n, double p);

  // Eq. 11 staging: out[k] = double(counts[k]) * scale (one rounding per
  // element; the caller rounds/clamps, keeping the PRNG order scalar).
  void (*scale_counts)(const int64_t* counts, int64_t n, double scale,
                       double* out);

  // Eq. 15 elementwise collision estimates (ha = double(a[k]), hb likewise):
  //   mult: out[k] = min((ha * hb) * lambda, min(ha, hb))
  //   add:  out[k] = clamp(ha + hb - mult[k], max(ha, hb), cap)
  // Multiplication order is fixed as (ha * hb) * lambda to match the scalar
  // propagation loops bit-for-bit.
  void (*ewise_mult_est)(const int64_t* a, const int64_t* b, int64_t n,
                         double lambda, double* out);
  void (*ewise_add_est)(const int64_t* a, const int64_t* b, int64_t n,
                        double lambda, double cap, double* out);

  // dst[k] |= src[k]. dst and src must not partially overlap.
  void (*or_into)(uint64_t* dst, const uint64_t* src, int64_t n);

  // dst[k] = a[k] | b[k] and dst[k] = a[k] & b[k].
  void (*or_words)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   int64_t n);
  void (*and_words)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    int64_t n);

  // Total set bits of w[0..n); fused popcount(a[k] & b[k]) without
  // materializing the AND (Eq. 3 row intersection).
  int64_t (*popcount_words)(const uint64_t* w, int64_t n);
  int64_t (*and_popcount_words)(const uint64_t* a, const uint64_t* b,
                                int64_t n);
};

// The portable reference table (always available; the baseline every other
// level must agree with).
const KernelTable& ScalarKernels();

// The table for a specific level; falls back to ScalarKernels() when the
// level is not compiled in or not runnable on this CPU.
const KernelTable& KernelsForLevel(SimdLevel level);

// The dispatched table: KernelsForLevel(BestSupportedSimdLevel()), resolved
// once per process. Overrides take precedence in this order:
// ScopedForceKernels (tests/benches) > tuned table (calibration profile,
// see mnc/tuning/machine_profile.h) > dispatched.
const KernelTable& Active();

// The level Active() currently resolves to (reflects a ScopedForceKernels
// override; a tuned table mixes levels per kernel and reports the
// dispatched level it was built from).
SimdLevel ActiveLevel();

// Installs a per-kernel tuned table from a calibration profile (nullptr
// uninstalls). The pointer must stay valid until replaced — the tuning
// layer keeps the storage alive for the process lifetime. Like
// ScopedForceKernels, publication is atomic but not synchronized against
// in-flight kernels: install before spawning parallel work. Every entry of
// a tuned table computes bit-identical results to every other table (the
// per-kernel determinism contract above), so swapping it never changes
// output, only throughput.
void SetTunedKernelTable(const KernelTable* table);
const KernelTable* TunedKernelTable();

// Test/bench hook: forces Active() to a given level for the lifetime of the
// object (nesting restores the previous override). The override is published
// atomically so concurrent kernel *callers* are safe, but installation is
// not synchronized against them — install before spawning parallel work.
class ScopedForceKernels {
 public:
  explicit ScopedForceKernels(SimdLevel level);
  ~ScopedForceKernels();

  ScopedForceKernels(const ScopedForceKernels&) = delete;
  ScopedForceKernels& operator=(const ScopedForceKernels&) = delete;

 private:
  SimdLevel previous_;
  bool had_previous_;
};

// --- Gustavson SpGEMM row kernels (dispatch-invariant scalar) -------------
//
// Shared by every SpGEMM kernel (sequential, parallel and guided), the
// symbolic count pass and ProductNnzExact. `acc` (dense accumulator) and
// `seen` (occupancy map) obey the clean-buffer idiom: all-zero on entry,
// and the gather/reset step re-zeroes the touched entries before returning
// — which is what makes them safe to reuse across rows, blocks and
// ScratchArena leases.

// Scatters one A-row term: acc[j] += av * b_val[t] over B's row pattern,
// recording first touches in seen/occupied.
inline void SpGemmScatterRow(const int64_t* b_idx, const double* b_val,
                             int64_t nb, double av, double* acc, char* seen,
                             std::vector<int64_t>& occupied) {
  for (int64_t t = 0; t < nb; ++t) {
    const int64_t j = b_idx[t];
    if (!seen[static_cast<size_t>(j)]) {
      seen[static_cast<size_t>(j)] = 1;
      occupied.push_back(j);
    }
    acc[static_cast<size_t>(j)] += av * b_val[t];
  }
}

// Pattern-only variant for the symbolic pass.
inline void SpGemmSymbolicRow(const int64_t* b_idx, int64_t nb, char* seen,
                              std::vector<int64_t>& occupied) {
  for (int64_t t = 0; t < nb; ++t) {
    const int64_t j = b_idx[t];
    if (!seen[static_cast<size_t>(j)]) {
      seen[static_cast<size_t>(j)] = 1;
      occupied.push_back(j);
    }
  }
}

// The gather switch rule: a row touching at least 1/16 of the `cols`
// accumulator columns is written by one linear sweep over [0, cols), which
// then costs less than sorting its occupied list.
inline bool SpGemmGatherSweeps(int64_t occupied, int64_t cols) {
  return occupied * 16 >= cols;
}

// Gathers the row's non-cancelled entries (value != 0.0) into
// out_idx/out_val in ascending column order — by a sweep over the
// accumulator columns or by sorting `occupied`, per SpGemmGatherSweeps; both
// write the same entries — and resets the touched acc/seen entries. Returns
// the number of entries written (<= occupied.size()). Clears `occupied`.
// out_idx/out_val must hold occupied.size() entries: the sweep stores each
// column at the next free slot before deciding whether to keep it, which
// keeps its loop free of data-dependent branches.
inline int64_t SpGemmGatherRow(std::vector<int64_t>& occupied, int64_t cols,
                               double* acc, char* seen, int64_t* out_idx,
                               double* out_val) {
  int64_t written = 0;
  const int64_t total = static_cast<int64_t>(occupied.size());
  if (SpGemmGatherSweeps(total, cols)) {
    // Only touched columns hold non-zero accumulators (clean-buffer
    // invariant), so testing the value selects exactly the entries the
    // sort path keeps. The sweep stops after the last touched column.
    int64_t visited = 0;
    for (int64_t j = 0; visited < total; ++j) {
      const double v = acc[static_cast<size_t>(j)];
      out_idx[written] = j;
      out_val[written] = v;
      written += v != 0.0 ? 1 : 0;
      visited += seen[static_cast<size_t>(j)];
      acc[static_cast<size_t>(j)] = 0.0;
      seen[static_cast<size_t>(j)] = 0;
    }
    occupied.clear();
    return written;
  }
  std::sort(occupied.begin(), occupied.end());
  for (int64_t j : occupied) {
    const double v = acc[static_cast<size_t>(j)];
    if (v != 0.0) {
      out_idx[written] = j;
      out_val[written] = v;
      ++written;
    }
    acc[static_cast<size_t>(j)] = 0.0;
    seen[static_cast<size_t>(j)] = 0;
  }
  occupied.clear();
  return written;
}

// Resets the seen map after a symbolic row and clears `occupied`, returning
// the pattern count.
inline int64_t SpGemmResetSymbolicRow(std::vector<int64_t>& occupied,
                                      char* seen) {
  const int64_t count = static_cast<int64_t>(occupied.size());
  for (int64_t j : occupied) seen[static_cast<size_t>(j)] = 0;
  occupied.clear();
  return count;
}

}  // namespace kernels
}  // namespace mnc

#endif  // MNC_KERNELS_KERNELS_H_
