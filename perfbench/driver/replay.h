// Traced runs only: replays the distinct requests of the seeded stream
// in-process against a twin catalog built from the same files, timing the
// benchmark's own calls into each layer's public functions (default
// arguments throughout). Nothing here runs during the timed phase.

#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "load.h"

namespace perfbench {

struct ReplayItem {
  std::string line;
  Verb verb = Verb::kEstimate;
  std::string served_by;  // of one reply, for the reply frame
  std::string body;
  int64_t weight = 0;     // occurrences in the timed phase
};

// Totals for one layer function, plain and weighted by each request's
// occurrences in the timed phase.
struct CallStats {
  int64_t calls = 0;
  double total_us = 0;
  double weighted_calls = 0;
  double weighted_us = 0;

  double MeanUs() const { return calls > 0 ? total_us / calls : 0; }
};

struct ReplayResult {
  std::map<std::string, CallStats> calls;  // "lang.parse", "core.propagate"...
  // Counts taken at the same calls.
  int64_t requests = 0;
  int64_t frame_bytes = 0;
  int64_t canonical_nodes = 0;
  int64_t products = 0;
  double product_flops = 0;
  double product_out_nnz = 0;
  double weighted_products = 0;
  double weighted_dense_products = 0;
  double weight_replayed = 0;
  double weight_total = 0;
  std::vector<Span> spans;
  std::vector<std::string> errors;
};

// Replays `items` most frequent first until `budget_ms` is spent; the
// catalog (every operand file) is always replayed.
ReplayResult ReplayLayers(const Workload& w, std::vector<ReplayItem> items,
                          double budget_ms);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
