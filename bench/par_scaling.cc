// Thread-scaling benchmark for the row-partitioned parallel kernels: sketch
// construction from CSR, Algorithm 1 product estimation + Eq. 11
// propagation, and the two-pass Gustavson SpGEMM. Every parallel result is
// cross-checked against the sequential kernel before any timing is
// reported, so a speedup here is a speedup of the *same* answer.
//
// Two legs:
//
//  * Uncalibrated (default): forced-parallel dispatch at --dim, comparing
//    the blocked parallel kernels against the sequential baseline. Both
//    configs pin the neutral profile so a lazily loaded ~/.cache profile
//    cannot silently turn the "parallel" leg sequential.
//
//  * Calibrated (--calibrated): obtains a MachineProfile (quick in-process
//    calibration, or --profile <path>) and measures calibrated dispatch
//    against the sequential baseline at a ladder of sizes. Because the
//    profile routes small inputs to the sequential path and large inputs
//    to the parallel path at the measured crossover, calibrated dispatch
//    must never lose to sequential: --check enforces speedup >= 1.0 minus
//    a machine-adaptive noise tolerance at EVERY measured size.
//
// Flags:
//   --dim <n>          square matrix dimension (default 10000)
//   --sparsity <f>     input sparsity (default 1e-3)
//   --threads <t>      worker threads for the parallel runs (default 8)
//   --grain <r>        rows per deterministic block (default 512)
//   --reps <n>         repetitions; the median is reported (default 3)
//   --json             also write BENCH_par.json
//   --check            exit non-zero unless the leg's gate passes (ctest).
//                      Uncalibrated gate: end-to-end speedup >= max(0.5,
//                      min(--min-speedup, 0.45 * min(threads, cores,
//                      measured))), where `measured` is the concurrency the
//                      pool's own workers were measured to get (lower of a
//                      probe before and one after the timed legs; see
//                      MeasurePoolConcurrency). Where the threads share one
//                      CPU this degrades to "parallel is not
//                      catastrophically slower". Calibrated gate:
//                      speedup >= 1.0 - tol at every ladder size, where
//                      tol adapts to the observed timing noise.
//   --min-speedup <x>  target speedup on a wide machine (default 3)
//   --calibrated       run the calibrated-dispatch ladder leg instead of
//                      the forced-parallel leg
//   --profile <path>   load a saved profile for --calibrated instead of
//                      calibrating in-process

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mnc/tuning/calibrate.h"
#include "mnc/tuning/machine_profile.h"
#include "mnc/util/parallel.h"
#include "mnc/util/stopwatch.h"
#include "mnc/util/thread_pool.h"

namespace {

struct TimeStats {
  double median = 0.0;
  double rel_spread = 0.0;  // (max - min) / median across reps
};

// Median-of-reps wall time of fn() plus the relative spread, used by the
// calibrated gate to derive a noise tolerance from this machine's jitter.
template <typename Fn>
TimeStats TimedReps(int64_t reps, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int64_t r = 0; r < reps; ++r) {
    mnc::Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  TimeStats stats;
  stats.median = times[times.size() / 2];
  if (stats.median > 0.0) {
    stats.rel_spread = (times.back() - times.front()) / stats.median;
  }
  return stats;
}

template <typename Fn>
double MedianSeconds(int64_t reps, const Fn& fn) {
  return TimedReps(reps, fn).median;
}

bool SketchesEqual(const mnc::MncSketch& a, const mnc::MncSketch& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.nnz() == b.nnz() &&
         a.hr() == b.hr() && a.hc() == b.hc() && a.her() == b.her() &&
         a.hec() == b.hec();
}

double Speedup(double sequential, double parallel) {
  return parallel > 0.0 ? sequential / parallel : 0.0;
}

constexpr uint64_t kSeed = 0xb5297a4d;

// Seed and result of the concurrency probe's work; volatile so the compiler
// can neither fold the work at compile time nor drop it as dead.
volatile uint64_t g_probe_sink = 0x9e3779b97f4a7c15ULL;

// One chunk of the concurrency probe: a serial chain of xorshift steps.
// Compute-only (no memory traffic) and a few milliseconds long, so a pool
// round trip is noise next to it.
uint64_t ProbeChunk(uint64_t x) {
  for (int i = 0; i < (1 << 20); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// The concurrency, in cores, that the pool's own worker threads get right
// now. The same fixed compute-only work, one chunk per worker, runs first
// back to back on the calling thread and then through pool->ParallelFor;
// the ratio of the two times is the measured concurrency. Median of a few
// short repeats, clamped to [1, workers].
//
// The host's core count is not enough: a cpuset without load balancing
// keeps threads on the CPU they were created on, so four threads can share
// one core although hardware_concurrency() reports four, and the usable
// count changes while the process runs. The probe runs no kernel under
// test, and it runs on the pool's workers rather than on fresh threads,
// because fresh threads are placed differently.
double MeasurePoolConcurrency(mnc::ThreadPool* pool) {
  constexpr int kRepeats = 5;
  const int64_t chunks = pool->num_threads();
  const uint64_t seed = g_probe_sink;
  std::vector<uint64_t> results(static_cast<size_t>(chunks));
  std::vector<double> ratios;
  for (int r = 0; r < kRepeats; ++r) {
    // Back to back: each chunk starts from the previous chunk's result, so
    // the calling thread cannot overlap them either.
    mnc::Stopwatch serial_watch;
    uint64_t chained = seed;
    for (int64_t c = 0; c < chunks; ++c) chained = ProbeChunk(chained);
    const double serial = serial_watch.ElapsedSeconds();

    mnc::Stopwatch pooled_watch;
    pool->ParallelFor(chunks, [&](int64_t begin, int64_t end) {
      for (int64_t c = begin; c < end; ++c) {
        results[static_cast<size_t>(c)] =
            ProbeChunk(seed + static_cast<uint64_t>(c));
      }
    });
    const double pooled = pooled_watch.ElapsedSeconds();

    for (const uint64_t x : results) chained ^= x;
    g_probe_sink = chained;
    ratios.push_back(Speedup(serial, pooled));
  }
  std::sort(ratios.begin(), ratios.end());
  return std::clamp(ratios[ratios.size() / 2], 1.0,
                    static_cast<double>(chunks));
}

// One size of the end-to-end pipeline: cross-checks that the `par` config
// reproduces the `seq` config bit-for-bit, then times both. Either config
// may resolve to the sequential path (that is the point of the calibrated
// leg); `ok == false` means the cross-check failed.
struct LegResult {
  bool ok = false;
  double seq_seconds = 0.0;
  double par_seconds = 0.0;
  double noise = 0.0;  // max relative spread over the sequential stages
  double estimate = 0.0;
  int64_t product_nnz = 0;
  double sketch_seq = 0.0, sketch_par = 0.0;
  double estimate_seq = 0.0, estimate_par = 0.0;
  double spgemm_seq = 0.0, spgemm_par = 0.0;
};

LegResult MeasureLeg(int64_t dim, double sparsity,
                     const mnc::ParallelConfig& seq,
                     const mnc::ParallelConfig& par, mnc::ThreadPool* pool,
                     int64_t reps) {
  LegResult out;
  mnc::Rng rng(42 + static_cast<uint64_t>(dim));
  const mnc::CsrMatrix a = mnc::GenerateUniformSparse(dim, dim, sparsity, rng);
  const mnc::CsrMatrix b = mnc::GenerateUniformSparse(dim, dim, sparsity, rng);

  // --- Stage 1: MNC sketch construction from CSR. ---
  const mnc::MncSketch sketch_a = mnc::MncSketch::FromCsr(a, seq, nullptr);
  const mnc::MncSketch sketch_b = mnc::MncSketch::FromCsr(b, seq, nullptr);
  const mnc::MncSketch sketch_par = mnc::MncSketch::FromCsr(a, par, pool);
  if (!SketchesEqual(sketch_a, sketch_par)) {
    std::fprintf(stderr, "FAIL: parallel sketch differs from sequential\n");
    return out;
  }
  const TimeStats sketch_seq_t = TimedReps(
      reps, [&] { mnc::MncSketch::FromCsr(a, seq, nullptr); });
  const double sketch_par_s =
      MedianSeconds(reps, [&] { mnc::MncSketch::FromCsr(a, par, pool); });

  // --- Stage 2: Algorithm 1 estimate + Eq. 11 product propagation. ---
  const double est_seq =
      mnc::EstimateProductNnz(sketch_a, sketch_b, seq, nullptr);
  const double est_par = mnc::EstimateProductNnz(sketch_a, sketch_b, par, pool);
  const mnc::MncSketch prop_seq =
      mnc::PropagateProduct(sketch_a, sketch_b, kSeed, seq, nullptr);
  const mnc::MncSketch prop_par =
      mnc::PropagateProduct(sketch_a, sketch_b, kSeed, par, pool);
  if (est_seq != est_par || !SketchesEqual(prop_seq, prop_par)) {
    std::fprintf(stderr, "FAIL: parallel estimate/propagation differs\n");
    return out;
  }
  const TimeStats estimate_seq_t = TimedReps(reps, [&] {
    mnc::EstimateProductNnz(sketch_a, sketch_b, seq, nullptr);
    mnc::PropagateProduct(sketch_a, sketch_b, kSeed, seq, nullptr);
  });
  const double estimate_par_s = MedianSeconds(reps, [&] {
    mnc::EstimateProductNnz(sketch_a, sketch_b, par, pool);
    mnc::PropagateProduct(sketch_a, sketch_b, kSeed, par, pool);
  });

  // --- Stage 3: Gustavson SpGEMM (two-pass parallel vs sequential). ---
  const mnc::CsrMatrix product_seq =
      mnc::MultiplySparseSparse(a, b, seq, nullptr);
  const mnc::CsrMatrix product_par = mnc::MultiplySparseSparse(a, b, par, pool);
  if (!product_seq.Equals(product_par)) {
    std::fprintf(stderr, "FAIL: parallel SpGEMM differs from sequential\n");
    return out;
  }
  const TimeStats spgemm_seq_t = TimedReps(
      reps, [&] { mnc::MultiplySparseSparse(a, b, seq, nullptr); });
  const double spgemm_par_s = MedianSeconds(
      reps, [&] { mnc::MultiplySparseSparse(a, b, par, pool); });

  out.ok = true;
  out.sketch_seq = sketch_seq_t.median;
  out.sketch_par = sketch_par_s;
  out.estimate_seq = estimate_seq_t.median;
  out.estimate_par = estimate_par_s;
  out.spgemm_seq = spgemm_seq_t.median;
  out.spgemm_par = spgemm_par_s;
  out.seq_seconds = out.sketch_seq + out.estimate_seq + out.spgemm_seq;
  out.par_seconds = out.sketch_par + out.estimate_par + out.spgemm_par;
  out.noise = std::max({sketch_seq_t.rel_spread, estimate_seq_t.rel_spread,
                        spgemm_seq_t.rel_spread});
  out.estimate = est_seq;
  out.product_nnz = product_seq.NumNonZeros();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t dim = mncbench::ArgInt(argc, argv, "dim", 10000);
  const double sparsity = mncbench::ArgDouble(argc, argv, "sparsity", 1e-3);
  const int64_t threads = mncbench::ArgInt(argc, argv, "threads", 8);
  const int64_t grain = mncbench::ArgInt(argc, argv, "grain", 512);
  const int64_t reps = mncbench::ArgInt(argc, argv, "reps", 3);
  const bool json = mncbench::ArgFlag(argc, argv, "json");
  const bool check = mncbench::ArgFlag(argc, argv, "check");
  const double min_speedup =
      mncbench::ArgDouble(argc, argv, "min-speedup", 3.0);
  const bool calibrated = mncbench::ArgFlag(argc, argv, "calibrated");
  const std::string profile_path =
      mncbench::ArgString(argc, argv, "profile", "");

  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  if (calibrated) {
    // --- Calibrated leg: profile-driven dispatch vs sequential baseline. ---
    auto profile = std::make_shared<mnc::tuning::MachineProfile>();
    if (!profile_path.empty()) {
      auto loaded = mnc::tuning::LoadProfile(profile_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "par_scaling: cannot load profile %s: %s\n",
                     profile_path.c_str(),
                     loaded.status().message().c_str());
        return 1;
      }
      *profile = *std::move(loaded);
    } else {
      mnc::tuning::CalibrationOptions copt;
      copt.threads = static_cast<int>(threads);
      copt.quick = true;
      copt.reps = 2;
      auto measured = mnc::tuning::Calibrate(copt);
      if (!measured.ok()) {
        std::fprintf(stderr, "par_scaling: calibration failed: %s\n",
                     measured.status().message().c_str());
        return 1;
      }
      *profile = *std::move(measured);
    }

    // The calibrated config consults the profile per stage; the baseline
    // pins the neutral profile (never parallelize, never retune) at one
    // thread. Same grain on both so the FP/PRNG stages stay comparable.
    mnc::ParallelConfig cal =
        mnc::ParallelConfig::FromProfile(profile.get(),
                                         static_cast<int>(threads));
    mnc::ParallelConfig seq = cal;
    seq.num_threads = 1;
    seq.profile = &mnc::tuning::NeutralProfile();
    mnc::ThreadPool pool(cal.ResolvedThreads());

    std::vector<int64_t> ladder;
    for (int64_t d : {dim / 4, dim / 2, dim}) {
      d = std::max<int64_t>(d, 256);
      if (ladder.empty() || ladder.back() != d) ladder.push_back(d);
    }

    std::printf("par_scaling (calibrated): threads=%d (cores=%d) "
                "sparsity=%g reps=%lld profile=%s\n",
                cal.ResolvedThreads(), hardware, sparsity,
                static_cast<long long>(reps),
                profile_path.empty() ? "<in-process quick calibration>"
                                     : profile_path.c_str());

    mncbench::JsonReport report("par_calibrated");
    report.Add("threads", static_cast<int64_t>(cal.ResolvedThreads()));
    report.Add("hardware_threads", static_cast<int64_t>(hardware));
    report.Add("sparsity", sparsity);
    report.Add("reps", reps);

    bool all_pass = true;
    for (const int64_t d : ladder) {
      const LegResult leg = MeasureLeg(d, sparsity, seq, cal, &pool, reps);
      if (!leg.ok) return 1;
      const double speedup = Speedup(leg.seq_seconds, leg.par_seconds);
      // Machine-adaptive tolerance: twice the worst observed relative
      // spread of the sequential reps, floored at 8% for quiet machines
      // and capped so a pathological spread cannot let a 2x slowdown by.
      const double tol =
          std::min(0.5, std::max(0.08, 2.0 * leg.noise));
      const bool pass = speedup >= 1.0 - tol;
      all_pass = all_pass && pass;
      std::printf("  dim=%-6lld seq %9.3f ms  cal %9.3f ms  %6.2fx "
                  "(tol %.2f, noise %.2f) %s\n",
                  static_cast<long long>(d), leg.seq_seconds * 1e3,
                  leg.par_seconds * 1e3, speedup, tol, leg.noise,
                  pass ? "ok" : "REGRESSION");
      const std::string prefix = "dim" + std::to_string(d) + "_";
      report.Add(prefix + "seq_seconds", leg.seq_seconds);
      report.Add(prefix + "cal_seconds", leg.par_seconds);
      report.Add(prefix + "speedup", speedup);
      report.Add(prefix + "tolerance", tol);
    }

    if (json) report.WriteToFile();

    if (check) {
      if (!all_pass) {
        std::fprintf(stderr,
                     "CHECK FAILED: calibrated dispatch slower than "
                     "sequential at one or more sizes\n");
        return 1;
      }
      std::printf("CHECK PASSED: calibrated dispatch >= sequential at "
                  "every measured size, calibrated == sequential\n");
    }
    return 0;
  }

  // --- Uncalibrated leg: forced-parallel dispatch at --dim. ---
  mnc::ParallelConfig config;
  config.num_threads = static_cast<int>(threads);
  config.min_rows_per_task = grain;
  config.deterministic = true;
  // Pin the neutral profile: this leg measures the raw blocked kernels, and
  // must not be silently rerouted by a profile in ~/.cache/mnc.
  config.profile = &mnc::tuning::NeutralProfile();
  mnc::ThreadPool pool(config.ResolvedThreads());

  // The sequential baseline is the same config at one thread, bit-identical
  // by the determinism contract. It is not the same algorithm everywhere:
  // estimation and propagation run their blocked reductions inline, but
  // sketch build and SpGEMM take their one-pass sequential kernels
  // (FromCsr(a), MultiplySparseSparse(a, b)), so the SpGEMM speedup also
  // carries the difference between the one-pass and the two-pass kernel.
  mnc::ParallelConfig seq = config;
  seq.num_threads = 1;

  // Placement can change during a run, so the gate counts the lower of the
  // concurrency measured before and after the timed legs.
  const double concurrency_before = MeasurePoolConcurrency(&pool);
  const LegResult leg = MeasureLeg(dim, sparsity, seq, config, &pool, reps);
  if (!leg.ok) return 1;
  const double concurrency_after = MeasurePoolConcurrency(&pool);
  const double measured = std::min(concurrency_before, concurrency_after);

  const double total_seq_s = leg.seq_seconds;
  const double total_par_s = leg.par_seconds;
  const double speedup = Speedup(total_seq_s, total_par_s);

  const double effective = std::min(
      {static_cast<double>(config.ResolvedThreads()),
       static_cast<double>(hardware), measured});
  const double required =
      std::max(0.5, std::min(min_speedup, 0.45 * effective));

  std::printf("par_scaling: dim=%lld sparsity=%g threads=%d (cores=%d) "
              "grain=%lld reps=%lld\n",
              static_cast<long long>(dim), sparsity, config.ResolvedThreads(),
              hardware, static_cast<long long>(grain),
              static_cast<long long>(reps));
  std::printf("  sketch build:    seq %9.3f ms  par %9.3f ms  %6.2fx\n",
              leg.sketch_seq * 1e3, leg.sketch_par * 1e3,
              Speedup(leg.sketch_seq, leg.sketch_par));
  std::printf("  estimate+prop:   seq %9.3f ms  par %9.3f ms  %6.2fx\n",
              leg.estimate_seq * 1e3, leg.estimate_par * 1e3,
              Speedup(leg.estimate_seq, leg.estimate_par));
  std::printf("  spgemm:          seq %9.3f ms  par %9.3f ms  %6.2fx\n",
              leg.spgemm_seq * 1e3, leg.spgemm_par * 1e3,
              Speedup(leg.spgemm_seq, leg.spgemm_par));
  std::printf("  total:           seq %9.3f ms  par %9.3f ms  %6.2fx\n",
              total_seq_s * 1e3, total_par_s * 1e3, speedup);
  std::printf("  estimate %.6e  product nnz %lld\n", leg.estimate,
              static_cast<long long>(leg.product_nnz));
  std::printf("  concurrency:     measured %.2f cores (before %.2f, after "
              "%.2f)  required %.2fx\n",
              measured, concurrency_before, concurrency_after, required);

  if (json) {
    mncbench::JsonReport report("par");
    report.Add("dim", dim);
    report.Add("sparsity", sparsity);
    report.Add("threads", static_cast<int64_t>(config.ResolvedThreads()));
    report.Add("hardware_threads", static_cast<int64_t>(hardware));
    report.Add("grain", grain);
    report.Add("reps", reps);
    report.Add("sketch_seq_seconds", leg.sketch_seq);
    report.Add("sketch_par_seconds", leg.sketch_par);
    report.Add("estimate_seq_seconds", leg.estimate_seq);
    report.Add("estimate_par_seconds", leg.estimate_par);
    report.Add("spgemm_seq_seconds", leg.spgemm_seq);
    report.Add("spgemm_par_seconds", leg.spgemm_par);
    report.Add("total_seq_seconds", total_seq_s);
    report.Add("total_par_seconds", total_par_s);
    report.Add("speedup", speedup);
    report.Add("measured_concurrency", measured);
    report.Add("required_speedup", required);
    report.Add("estimate", leg.estimate);
    report.Add("product_nnz", leg.product_nnz);
    report.WriteToFile();
  }

  if (check) {
    if (speedup < required) {
      std::fprintf(stderr,
                   "CHECK FAILED: speedup %.2fx < required %.2fx "
                   "(threads=%d cores=%d measured=%.2f)\n",
                   speedup, required, config.ResolvedThreads(), hardware,
                   measured);
      return 1;
    }
    std::printf("CHECK PASSED: %.2fx >= %.2fx (measured %.2f cores), "
                "parallel == sequential\n",
                speedup, required, measured);
  }
  return 0;
}
