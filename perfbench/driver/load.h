// Closed-loop load: one thread per connection, each sending its stream's
// next request only after the previous reply arrived (serve::ServeClient).
// Every reply is tallied per distinct command line for checking after the
// run; timed-phase requests also leave a latency sample.

#ifndef PERFBENCH_DRIVER_LOAD_H_
#define PERFBENCH_DRIVER_LOAD_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "inputs.h"

namespace perfbench {

enum class Outcome : uint8_t {
  kOk = 0,
  kTransport = 1,  // connection or framing failure
  kTypedError = 2, // kError reply (busy, deadline, parse error, ...)
  kDegraded = 3,   // answered by a fallback tier
};

struct Sample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cmd_ms = -1;  // server-printed command time; < 0 when absent
  int64_t task = -1;
  int64_t task_start_ns = 0;  // start of the first request of `task`
  Verb verb = Verb::kEstimate;
  Outcome outcome = Outcome::kOk;
  bool task_end = false;
  bool memo_hit = false;
  bool traced = false;  // sent while span recording was on
};

// Replies seen for one command line: normalized reply text -> count (see
// NormalizedReply in load.cc). Lines that failed count under `failed`.
struct LineTally {
  Verb verb = Verb::kEstimate;
  std::map<std::string, int64_t> replies;
  std::string first_body;  // one raw reply body (trace replay frames)
  int64_t failed = 0;
  int64_t timed = 0;  // occurrences in the timed phase
};

struct LoadOptions {
  int port = 0;
  // Requests before timed_start_ns are the warm-up; none is sent after
  // timed_end_ns. Both are set while the load runs, once the warm-up is
  // over (see RunLoad in main.cc); until then the load is all warm-up.
  std::atomic<int64_t> timed_start_ns{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> timed_end_ns{std::numeric_limits<int64_t>::max()};
  // > 0: the timed phase alternates slices of this length with span
  // recording off and on (traced runs measure their own overhead).
  int64_t trace_slice_ns = 0;
};

// Spans recorded while tracing is on: the client round trip of each
// request, and as its child the command time the server printed.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0: root
  int64_t request = 0;
};

struct LoadResult {
  std::vector<Sample> samples;  // timed phase, every connection
  std::unordered_map<std::string, LineTally> tallies;
  std::vector<Span> spans;
  int64_t warmup_requests = 0;
  int64_t warmup_failed = 0;
  std::vector<std::string> errors;  // first few failure messages
};

LoadResult RunClosedLoop(const Workload& w, const LoadOptions& opt);

// The reply text compared against the reference: estimate bodies without
// tier label and time; exec and register bodies reduced to dimensions,
// non-zeros and sparsity.
std::string NormalizedReply(Verb verb, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LOAD_H_
