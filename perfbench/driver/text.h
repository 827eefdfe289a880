// Reading the server's reply bodies and `stats` text. Everything here is
// tolerant: a field the server no longer prints comes back as nullopt
// (reported as absent), never as zero and never as an error.

#ifndef PERFBENCH_DRIVER_TEXT_H_
#define PERFBENCH_DRIVER_TEXT_H_

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

// The command time the server prints at the end of a reply body
// ("..., 0.123 ms)" or "..., 12.5 ms").
std::optional<double> CommandMillis(const std::string& body);

// An estimate body without what depends on cache state or timing: the
// tier label ("served by mnc" / "served by memo, memo hit") and the time.
std::string EstimateCore(const std::string& body);
bool EstimateMemoHit(const std::string& body);

// "R x C" dimensions, a "N non-zeros" count and a "sparsity S" value,
// wherever they appear in a body.
struct BodyFacts {
  std::optional<int64_t> rows, cols, nnz;
  std::optional<double> sparsity;
};
BodyFacts ParseFacts(const std::string& body);

// Field `label` of the `stats` line starting with `line` + ":"; the line is
// a comma-separated list of "<number> <label>" items.
std::optional<double> StatField(const std::string& stats,
                                const std::string& line,
                                const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TEXT_H_
