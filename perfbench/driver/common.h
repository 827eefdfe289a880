// Small shared helpers for the benchmark driver: a seeded generator whose
// output is the same on every platform, a monotonic clock, percentiles and
// a minimal JSON writer.

#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64 stream. Inputs must depend on the seed alone, so the standard
// library distributions (whose output is implementation-defined) are not
// used anywhere in input generation.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^
               (stream + 1) * 0xD1B54A32D192ED03ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Unbiased integer in [0, n) by rejection sampling.
  uint64_t Below(uint64_t n) {
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x = Next();
    while (x >= limit) x = Next();
    return x % n;
  }

  int64_t Range(int64_t lo, int64_t hi) {  // inclusive bounds
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; nullopt
// when empty.
inline std::optional<double> Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// A number with all its digits ("%.17g"); non-finite values become null.
inline std::string JsonNumber(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

// One named measurement. `value` is nullopt when the mechanism behind it is
// absent (a stats line or field the server no longer prints, a verb the
// workload does not send, a ratio over zero events).
struct Metric {
  std::optional<double> value;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
