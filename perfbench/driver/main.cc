// perfbench_driver: one run of one workload against a freshly started
// `mnc_tool serve --listen` process. See perfbench/README.md for the
// workloads, the metrics and how each is measured.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --tool <mnc_tool> --work <dir> --reports <dir>
//                    [--corrupt-reference]
//
// Exit codes: 0 every reply checked and correct; 1 a result was printed
// but some reply failed or mismatched its reference; 2 the run could not be
// set up (nothing printed on the result line).

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "load.h"
#include "mnc/kernels/kernels.h"
#include "mnc/serve/client.h"
#include "mnc/serve/command.h"
#include "mnc/service/estimation_service.h"
#include "mnc/tuning/machine_profile.h"
#include "mnc/util/simd.h"
#include "replay.h"
#include "server_process.h"
#include "text.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string tool, work, reports;
  bool corrupt_reference = false;
};

// A run that cannot be set up. Thrown rather than exiting so that the
// server process is stopped on the way out.
struct SetupError {
  std::string why;
};

[[noreturn]] void Fail(const std::string& why) { throw SetupError{why}; }

void Connect(mnc::serve::ServeClient& client, int port) {
  if (mnc::Status s = client.Connect(port); !s.ok()) {
    Fail("connect: " + s.ToString());
  }
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--tool") {
      a.tool = value();
    } else if (k == "--work") {
      a.work = value();
    } else if (k == "--reports") {
      a.reports = value();
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      Fail("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.tool.empty() || a.work.empty() ||
      a.reports.empty() || a.seconds <= 0) {
    Fail("usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> --tool <mnc_tool> --work <dir> --reports <dir>");
  }
  return a;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  }
}

std::optional<double> Share(double num, double den) {
  if (den <= 0) return std::nullopt;
  return num / den;
}

std::optional<double> Ratio(std::optional<double> num,
                            std::optional<double> den) {
  if (!num || !den) return std::nullopt;
  return Share(*num, *den);
}

// ---------------------------------------------------------------------------
// References.

// Expected register reply (see NormalizedReply) for a file's content.
std::string RegisterReference(const Pattern& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%lld x %lld, sparsity %.6g",
                static_cast<long long>(p.rows), static_cast<long long>(p.cols),
                static_cast<double>(p.nnz()) / (static_cast<double>(p.rows) *
                                                static_cast<double>(p.cols)));
  return buf;
}

std::string ExecReference(const Pattern& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%lld x %lld, %lld non-zeros",
                static_cast<long long>(p.rows), static_cast<long long>(p.cols),
                static_cast<long long>(p.nnz()));
  return buf;
}

// Every binding of the operands to their content versions, as one version
// index per operand; the first binds version 0 everywhere.
std::vector<std::vector<size_t>> VersionCombos(const Workload& w) {
  std::vector<std::vector<size_t>> combos = {
      std::vector<size_t>(w.operands.size(), 0)};
  for (size_t i = 0; i < w.operands.size(); ++i) {
    std::vector<std::vector<size_t>> next;
    for (const auto& c : combos) {
      for (size_t v = 0; v < w.operands[i].versions.size(); ++v) {
        next.push_back(c);
        next.back()[i] = v;
      }
    }
    combos = std::move(next);
  }
  return combos;
}

// Whether `combo` binds some operand of `e` to a version other than 0 (the
// first combo counts for every expression).
bool UsesCombo(const AstPtr& e, const std::vector<std::vector<size_t>>& combos,
               size_t c) {
  if (c == 0) return true;
  std::vector<int> ops;
  CollectOperands(e, &ops);
  for (int o : ops) {
    if (combos[c][o] != 0) return true;
  }
  return false;
}

// The estimate reference: a default, sequential, in-process service over
// the same files, driven through the same command layer as the server.
class ReferenceService {
 public:
  explicit ReferenceService(const Workload& w) : w_(w) {}

  void Bind(const std::vector<size_t>& combo, std::vector<std::string>* notes) {
    for (size_t i = 0; i < w_.operands.size(); ++i) {
      const std::string cmd =
          std::string(w_.streaming_catalog ? "register-path " : "register ") +
          w_.operands[i].name + " " + w_.operands[i].files[combo[i]];
      const auto r = mnc::serve::RunServeCommand(service_, cmd);
      if (!r.ok()) notes->push_back(cmd + ": " + r.status.ToString());
    }
  }

  mnc::serve::CommandOutcome Estimate(const std::string& text) {
    return mnc::serve::RunServeCommand(service_, "estimate " + text);
  }

 private:
  const Workload& w_;
  mnc::EstimationService service_;
};

struct Checked {
  int64_t attempted = 0;
  int64_t failed = 0;      // every failed or mismatched reply
  int64_t mismatched = 0;  // replies that differ from their reference
  std::vector<std::string> notes;
};

// Checks every tallied reply (all phases) against its reference.
Checked CheckReplies(const Workload& w, ReferenceService& ref,
                     const std::map<std::string, LineTally>& lines,
                     bool corrupt_reference) {
  Checked out;
  std::map<std::string, std::set<std::string>> expected;
  std::map<std::string, std::string> by_file;
  for (const Operand& op : w.operands) {
    for (size_t v = 0; v < op.files.size(); ++v) {
      by_file[op.files[v]] = RegisterReference(op.versions[v]);
    }
  }
  std::map<std::string, AstPtr> pool;
  for (const PoolExpr& e : w.accuracy_pool) pool[e.text] = e.ast;

  const std::vector<std::vector<size_t>> combos = VersionCombos(w);
  for (size_t c = 0; c < combos.size(); ++c) {
    ref.Bind(combos[c], &out.notes);
    std::vector<const Pattern*> leaves;
    for (size_t i = 0; i < w.operands.size(); ++i) {
      leaves.push_back(&w.operands[i].versions[combos[c][i]]);
    }
    for (const auto& [line, tally] : lines) {
      const std::string text = line.substr(line.find(' ') + 1);
      const auto in_pool = pool.find(text);
      if (tally.verb == Verb::kRegister) {
        if (c != 0) continue;
        const std::string file = line.substr(line.rfind(' ') + 1);
        expected[line].insert(by_file.count(file) ? by_file[file]
                                                   : "unknown file " + file);
      } else if (tally.verb == Verb::kExec) {
        expected[line].insert(
            in_pool == pool.end()
                ? "no reference for this expression"
                : ExecReference(EvalPattern(in_pool->second, leaves)));
      } else if (in_pool == pool.end()
                     ? c == 0
                     : UsesCombo(in_pool->second, combos, c)) {
        const auto r = ref.Estimate(text);
        expected[line].insert(r.ok() ? EstimateCore(r.body)
                                     : "reference: " + r.status.ToString());
      }
    }
  }

  if (corrupt_reference && !lines.empty()) {
    // Self-test hook: one deliberately wrong reference must surface as a
    // failed run.
    const std::string& victim = lines.begin()->first;
    expected[victim] = {"deliberately wrong reference"};
    out.notes.push_back("reference for '" + victim.substr(0, 60) +
                        "' corrupted on purpose");
  }

  for (const auto& [line, tally] : lines) {
    out.failed += tally.failed;
    out.attempted += tally.failed;
    const std::set<std::string>& ok = expected[line];
    for (const auto& [reply, n] : tally.replies) {
      out.attempted += n;
      if (ok.count(reply) != 0) continue;
      out.mismatched += n;
      out.failed += n;
      out.notes.push_back("mismatch: '" + line.substr(0, 80) + "' replied '" +
                          reply + "', expected '" +
                          (ok.empty() ? "" : *ok.begin()) + "'");
    }
  }
  return out;
}

bool Contains(const AstPtr& e, Ast::Op op) {
  return e != nullptr &&
         (e->op == op || Contains(e->a, op) || Contains(e->b, op));
}

// The operator an expression's estimate error is reported under: the first
// element-wise operator it contains, in the order below, else "product".
const char* ErrorClass(const AstPtr& e) {
  if (Contains(e, Ast::Op::kMul)) return "ewise_mul";
  if (Contains(e, Ast::Op::kAdd)) return "ewise_add";
  if (Contains(e, Ast::Op::kNotZero)) return "not_zero";
  return "product";
}
constexpr const char* kErrorClasses[] = {"product", "ewise_mul", "ewise_add",
                                         "not_zero"};

struct ErrorTally {
  int64_t count = 0;
  double log_sum = 0;
  double worst = 1;

  void Add(double ratio) {
    ++count;
    log_sum += std::log(ratio);
    worst = std::max(worst, ratio);
  }
  std::optional<double> Gmean() const {
    if (count == 0) return std::nullopt;
    return std::exp(log_sum / static_cast<double>(count));
  }
};

// §5 M1 over the accuracy pool, once per content version of the operands
// each expression uses: max(est, true) / min(est, true) non-zeros,
// geometric mean, over all expressions ("all") and per ErrorClass.
std::map<std::string, ErrorTally> EstimateError(const Workload& w,
                                                ReferenceService& ref) {
  std::vector<std::string> notes;
  const std::vector<std::vector<size_t>> combos = VersionCombos(w);
  std::map<std::string, ErrorTally> out;
  for (size_t c = 0; c < combos.size(); ++c) {
    ref.Bind(combos[c], &notes);
    std::vector<const Pattern*> leaves;
    for (size_t i = 0; i < w.operands.size(); ++i) {
      leaves.push_back(&w.operands[i].versions[combos[c][i]]);
    }
    for (const PoolExpr& e : w.accuracy_pool) {
      if (!UsesCombo(e.ast, combos, c)) continue;
      const auto r = ref.Estimate(e.text);
      const BodyFacts f = ParseFacts(r.body);
      const double act = std::max<double>(
          1, static_cast<double>(EvalPattern(e.ast, leaves).nnz()));
      if (!r.ok() || !f.sparsity || !f.rows || !f.cols) continue;
      // Both counts are floored at one non-zero, so an estimate of an
      // empty output for a non-empty one counts as a miss by the true
      // count rather than being left out.
      const double est = std::max(1.0, *f.sparsity *
                                           static_cast<double>(*f.rows) *
                                           static_cast<double>(*f.cols));
      const double ratio = std::max(est, act) / std::min(est, act);
      out["all"].Add(ratio);
      out[ErrorClass(e.ast)].Add(ratio);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up and load.

// Set-up probes per run, after the set-up of the server that serves the
// load.
constexpr int kSetupProbes = 12;
// Least length of a round of register probes (see ProbeRegisters), long
// enough for its host steal share, counted in 10 ms clock ticks, to mean
// something; also the pause before a set-up probe when there are none.
constexpr int64_t kRegisterRoundNs = 250'000'000;
// The timed phase is cut into windows so that the ones the host slowed can
// be left out (see Clean).
constexpr int kWindows = 20;
// A window or set-up with at most this share of the host's CPU time stolen
// is clean. Timings are taken over at least a quarter of the windows (five
// seconds of a 20-second run) and half of the set-ups.
constexpr double kCleanSteal = 0.01;
constexpr double kLeastWindows = 0.25;
// Longest warm-up. Past its usual length (10% of the run, at least a
// second) the warm-up goes on by whole seconds while the host stole more
// than kCleanSteal of its CPU time in the last one: a spell of steal that
// covers the whole timed phase would leave no clean window to measure.
constexpr int64_t kQuietWaitNs = 12'000'000'000;
constexpr double kLeastSetups = 0.5;

// The host's CPU time stolen by the hypervisor, and all its CPU time, in
// clock ticks since boot (the first line of /proc/stat).
struct HostTicks {
  double steal = 0, total = 0;
};

std::optional<HostTicks> ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return std::nullopt;
  HostTicks t;
  double v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const std::optional<HostTicks>& a,
                  const std::optional<HostTicks>& b) {
  if (!a || !b || b->total <= a->total) return 0;
  return (b->steal - a->steal) / (b->total - a->total);
}

// Which windows (or set-ups) the timings are taken over, given the share of
// the host's CPU time stolen in each. On a shared host a hypervisor takes
// CPU time from this machine for seconds at a time, halving the server's
// throughput while its CPU time per request hardly moves; a window it took
// time from measures the host, not the server. Every clean one is kept, or,
// when fewer than `least` of them are clean, that share with the least
// stolen.
std::vector<bool> Clean(const std::vector<double>& steal, double least) {
  const double limit =
      std::max(kCleanSteal, Percentile(steal, least).value_or(0));
  std::vector<bool> clean;
  for (double x : steal) clean.push_back(x <= limit);
  return clean;
}

struct SetupResult {
  std::vector<double> seconds;  // one per set-up
  std::vector<double> steal;    // host steal share, one per set-up
  std::unordered_map<std::string, LineTally> tally;
};

// Starts the server and registers the catalog; the server stays up.
void SetUp(const Args& args, const Workload& w, const std::string& home,
           ServerProcess* server, SetupResult* out) {
  const int64_t t0 = NowNs();
  const std::optional<HostTicks> h0 = ReadHostTicks();
  if (std::string err = server->Start(args.tool, args.work, home);
      !err.empty()) {
    Fail("server start: " + err);
  }
  mnc::serve::ServeClient client;
  Connect(client, server->port());
  for (const std::string& cmd : w.SetupCommands()) {
    auto reply = client.Call(cmd);
    if (!reply.ok() || !reply->ok()) {
      Fail("set-up '" + cmd + "' failed: " +
           (reply.ok() ? reply->status.ToString()
                       : reply.status().ToString()) +
           "\n" + server->ErrorLog());
    }
    LineTally& t = out->tally[cmd];
    t.verb = Verb::kRegister;
    ++t.replies[NormalizedReply(Verb::kRegister, reply->body)];
  }
  out->seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  out->steal.push_back(StealShare(h0, ReadHostTicks()));
}

// Register latency of a workload whose timed phase sends no register: the
// catalog re-registered on the load's server once the timed phase is over,
// in rounds of whole passes over it, one round before each set-up probe.
// A set-up's registrations run in a freshly started process, and their
// median spread by a quarter or more over seeds; these run warm, as a
// runtime's re-registrations do. The host's slow spells last seconds, so
// the rounds are spread over the set-up probes' seconds rather than sent in
// one burst, and, as with windows, the ones it stole most from are left out.
struct RegisterProbes {
  std::vector<std::vector<double>> ms;  // round trips, per round
  std::vector<double> steal;            // host steal share, per round
  std::vector<double> cmd_ms;           // command times the server printed
  std::unordered_map<std::string, LineTally> tally;
  int64_t sent = 0;

  // Round trips of the clean rounds (clean as for set-ups).
  std::vector<double> CleanMs() const {
    const std::vector<bool> clean = Clean(steal, kLeastSetups);
    std::vector<double> out;
    for (size_t r = 0; r < ms.size(); ++r) {
      if (clean[r]) out.insert(out.end(), ms[r].begin(), ms[r].end());
    }
    return out;
  }
};

// One round: whole passes over the catalog for at least kRegisterRoundNs.
void ProbeRegisters(const Workload& w, mnc::serve::ServeClient& client,
                    RegisterProbes* out) {
  const std::vector<std::string> cmds = w.SetupCommands();
  out->ms.emplace_back();
  const std::optional<HostTicks> h0 = ReadHostTicks();
  const int64_t t0 = NowNs();
  do {
    for (const std::string& cmd : cmds) {
      LineTally& t = out->tally[cmd];
      t.verb = Verb::kRegister;
      ++out->sent;
      const int64_t r0 = NowNs();
      auto reply = client.Call(cmd);
      const int64_t r1 = NowNs();
      if (!reply.ok() || !reply->ok()) {
        ++t.failed;
        continue;
      }
      ++t.replies[NormalizedReply(Verb::kRegister, reply->body)];
      out->ms.back().push_back(Ms(r1 - r0));
      if (auto ms = CommandMillis(reply->body)) out->cmd_ms.push_back(*ms);
    }
  } while (NowNs() - t0 < kRegisterRoundNs);
  out->steal.push_back(StealShare(h0, ReadHostTicks()));
}

struct TimedRun {
  LoadResult load;
  int64_t t0 = 0, t1 = 0;                   // the timed phase
  double warmup_s = 0;
  double warmup_steal = 0;  // host steal share in the warm-up's last second
  std::vector<std::optional<double>> cpu;   // server CPU ms at window edges
  std::vector<std::optional<HostTicks>> host;  // host ticks at window edges
  std::string stats_before, stats_after;    // `stats` text, "" if failed
  std::optional<double> peak_rss_mb;        // over the server's life
};

TimedRun RunLoad(const Args& args, const Workload& w,
                 const ServerProcess& server) {
  TimedRun run;
  LoadOptions opt;
  opt.port = server.port();
  const int64_t timed_ns = static_cast<int64_t>(args.seconds * 1e9);
  // Traced runs alternate eighths with span recording off and on.
  if (args.trace) opt.trace_slice_ns = timed_ns / 8;
  mnc::serve::ServeClient control;
  Connect(control, server.port());
  auto stats = [&control]() -> std::string {
    auto r = control.Call("stats");
    return r.ok() && r->ok() ? r->body : "";
  };
  const int64_t warmup_start = NowNs();
  std::thread load_thread([&] { run.load = RunClosedLoop(w, opt); });
  // The warm-up: 10% of the run and at least a second, then whole seconds
  // more while the host's last second was not clean (see kQuietWaitNs).
  SleepUntil(warmup_start +
             static_cast<int64_t>(std::max(0.0, 0.1 * args.seconds - 1) *
                                  1e9));
  for (;;) {
    const std::optional<HostTicks> h0 = ReadHostTicks();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    run.warmup_steal = StealShare(h0, ReadHostTicks());
    if (run.warmup_steal <= kCleanSteal ||
        NowNs() - warmup_start >= kQuietWaitNs) {
      break;
    }
  }
  run.t0 = NowNs();
  run.t1 = run.t0 + timed_ns;
  run.warmup_s = static_cast<double>(run.t0 - warmup_start) / 1e9;
  opt.timed_end_ns.store(run.t1);
  opt.timed_start_ns.store(run.t0);
  run.cpu.push_back(server.CpuMillis());
  run.host.push_back(ReadHostTicks());
  run.stats_before = stats();
  for (int k = 1; k <= kWindows; ++k) {
    SleepUntil(run.t0 + (run.t1 - run.t0) * k / kWindows);
    run.cpu.push_back(server.CpuMillis());
    run.host.push_back(ReadHostTicks());
  }
  load_thread.join();
  // Set-up, warm-up and the timed phase: the server's whole life so far.
  run.peak_rss_mb = server.PeakRssMb();
  run.stats_after = stats();
  return run;
}

// ---------------------------------------------------------------------------
// Metrics.

// A latency sample keyed by when its request (or task) started.
struct Timed {
  int64_t start_ns;
  double ms;
};

std::vector<Timed> Latencies(const std::vector<Sample>& samples, Verb v) {
  std::vector<Timed> out;
  for (const Sample& s : samples) {
    if (s.verb == v && s.outcome == Outcome::kOk) {
      out.push_back({s.start_ns, Ms(s.end_ns - s.start_ns)});
    }
  }
  return out;
}

// Latency of complete tasks that began in the timed phase.
std::vector<Timed> TaskLatencies(const std::vector<Sample>& samples,
                                 int64_t timed_start) {
  std::vector<Timed> out;
  for (const Sample& s : samples) {
    if (s.task_end && s.outcome == Outcome::kOk &&
        s.task_start_ns >= timed_start) {
      out.push_back({s.task_start_ns, Ms(s.end_ns - s.task_start_ns)});
    }
  }
  return out;
}

int WindowOf(const TimedRun& run, int64_t start_ns) {
  return static_cast<int>(std::clamp<int64_t>(
      (start_ns - run.t0) * kWindows / (run.t1 - run.t0), 0, kWindows - 1));
}

// Share of the host's CPU time stolen in each window of the timed phase.
std::vector<double> StealShares(const TimedRun& run) {
  std::vector<double> steal;
  for (int k = 0; k < kWindows; ++k) {
    steal.push_back(StealShare(run.host[k], run.host[k + 1]));
  }
  return steal;
}

// Percentile of the samples that started in a clean window.
std::optional<double> CleanPercentile(const TimedRun& run,
                                      const std::vector<bool>& clean,
                                      const std::vector<Timed>& samples,
                                      double q) {
  std::vector<double> ms;
  for (const Timed& s : samples) {
    if (clean[WindowOf(run, s.start_ns)]) ms.push_back(s.ms);
  }
  return Percentile(std::move(ms), q);
}

MetricMap EndToEnd(const TimedRun& run, const SetupResult& setup,
                   std::optional<double> est_error) {
  const std::vector<Sample>& samples = run.load.samples;
  const double timed_s = static_cast<double>(run.t1 - run.t0) / 1e9;
  const std::vector<bool> clean = Clean(StealShares(run), kLeastWindows);
  std::vector<double> ok(kWindows, 0);
  for (const Sample& s : samples) {
    if (s.outcome == Outcome::kOk) ok[WindowOf(run, s.start_ns)] += 1;
  }
  double clean_ok = 0, clean_s = 0, cpu_ms = 0, cpu_ok = 0;
  for (int k = 0; k < kWindows; ++k) {
    if (!clean[k]) continue;
    clean_ok += ok[k];
    clean_s += timed_s / kWindows;
    if (run.cpu[k] && run.cpu[k + 1]) {
      cpu_ms += *run.cpu[k + 1] - *run.cpu[k];
      cpu_ok += ok[k];
    }
  }
  const std::vector<bool> clean_setups = Clean(setup.steal, kLeastSetups);
  std::vector<double> setup_s;
  for (size_t i = 0; i < setup.seconds.size(); ++i) {
    if (clean_setups[i]) setup_s.push_back(setup.seconds[i]);
  }
  const std::vector<Timed> est = Latencies(samples, Verb::kEstimate);
  const std::vector<Timed> task = TaskLatencies(samples, run.t0);
  MetricMap m;
  m["setup_s"] = {Percentile(setup_s, 0.5), "s"};
  m["throughput_rps"] = {Share(clean_ok, clean_s), "req/s"};
  m["estimate_p50_ms"] = {CleanPercentile(run, clean, est, 0.5), "ms"};
  m["task_p50_ms"] = {CleanPercentile(run, clean, task, 0.5), "ms"};
  m["est_error_gmean"] = {est_error, "ratio"};
  m["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
  m["cpu_ms_per_req"] = {Share(cpu_ms, cpu_ok), "ms"};
  return m;
}

// Latencies measured on every run but reported with the per-layer
// metrics, without a bound: their run-to-run spread passed any bound the
// benchmark may set (at most 0.25).
// - The tails. On exec-densify 3-6% of estimates wait behind the other
//   connection's parallel products for 1-10 ms, so the estimates' 95th
//   percentile falls on the edge of that tail and spread by half its median
//   or more over seeds, on a quiet host too. The exec tail of
//   exec-hypersparse-churn spread by 0.29-0.43 over seeds while the
//   hypervisor took CPU time for minutes at a time; a stall of a few
//   milliseconds there outlasts an exec.
// - Register latency: of the timed phase's registers, or, on workloads
//   without them, of the register probes. On estimate-optimizer a
//   `register-path` of a large catalog file takes about 20 ms or about
//   28 ms by the host's state of the moment, and the median spread by
//   0.15-0.25 over sets of ten seeds.
void AddUnbounded(const TimedRun& run, const RegisterProbes& probes,
                  MetricMap* m) {
  const std::vector<bool> clean = Clean(StealShares(run), kLeastWindows);
  (*m)["estimate_p95_ms"] = {
      CleanPercentile(run, clean, Latencies(run.load.samples, Verb::kEstimate),
                      0.95),
      "ms"};
  (*m)["task_p95_ms"] = {
      CleanPercentile(run, clean, TaskLatencies(run.load.samples, run.t0),
                      0.95),
      "ms"};
  const std::vector<Timed> reg = Latencies(run.load.samples, Verb::kRegister);
  (*m)["register_p50_ms"] = {reg.empty()
                                 ? Percentile(probes.CleanMs(), 0.5)
                                 : CleanPercentile(run, clean, reg, 0.5),
                             "ms"};
}

std::optional<double> Delta(const TimedRun& run, const std::string& line,
                            const std::string& label) {
  const auto a = StatField(run.stats_before, line, label);
  const auto b = StatField(run.stats_after, line, label);
  if (!a || !b) return std::nullopt;
  return *b - *a;
}

// hits / (hits + misses) of a `stats` line.
std::optional<double> HitRatio(const TimedRun& run, const std::string& line) {
  const auto hits = Delta(run, line, "hits");
  const auto misses = Delta(run, line, "misses");
  if (!hits || !misses) return std::nullopt;
  return Share(*hits, *hits + *misses);
}

// Layer counters from the `stats` text, the server's printed command times
// and the shares the workloads were chosen for.
MetricMap Counters(const TimedRun& run, const RegisterProbes& probes) {
  const std::vector<Sample>& samples = run.load.samples;
  const double n = static_cast<double>(samples.size());
  double estimates = 0, root_hits = 0, registers = 0, typed_errors = 0;
  std::vector<double> overhead_us;
  std::vector<double> cmd[kNumVerbs];
  for (const Sample& s : samples) {
    if (s.verb == Verb::kRegister) ++registers;
    if (s.outcome == Outcome::kTypedError) ++typed_errors;
    if (s.outcome != Outcome::kOk) continue;
    if (s.verb == Verb::kEstimate) {
      ++estimates;
      root_hits += s.memo_hit ? 1 : 0;
    }
    if (s.cmd_ms >= 0) {
      cmd[static_cast<int>(s.verb)].push_back(s.cmd_ms);
      overhead_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3 -
                            s.cmd_ms * 1e3);
    }
  }
  double execs = 0, transposed = 0;
  for (const auto& [line, t] : run.load.tallies) {
    if (t.verb != Verb::kExec) continue;
    execs += static_cast<double>(t.timed);
    if (line.find("t(") != std::string::npos) {
      transposed += static_cast<double>(t.timed);
    }
  }
  if (cmd[static_cast<int>(Verb::kRegister)].empty()) {
    cmd[static_cast<int>(Verb::kRegister)] = probes.cmd_ms;
  }

  MetricMap m;
  for (int v = 0; v < kNumVerbs; ++v) {
    m[std::string("service.cmd_ms_p50.") + VerbName(static_cast<Verb>(v))] = {
        Percentile(cmd[v], 0.5), "ms"};
  }
  m["serve.overhead_p50_us"] = {Percentile(overhead_us, 0.5), "us"};
  m["serve.batch_size_mean"] = {Ratio(Delta(run, "serve", "batched requests"),
                                      Delta(run, "serve", "batches")),
                                "count"};
  m["serve.refused"] = {
      typed_errors + Delta(run, "serve", "rejected").value_or(0), "count"};
  m["service.memo_hit_ratio"] = {HitRatio(run, "memo"), "ratio"};
  m["service.memo_evictions_per_req"] = {
      Ratio(Delta(run, "memo", "evictions"), n), "count"};
  m["service.root_hit_share"] = {Share(root_hits, estimates), "fraction"};
  m["service.packed_bytes"] = {
      StatField(run.stats_after, "plan", "packed bytes"), "bytes"};
  m["service.plan_hit_ratio"] = {HitRatio(run, "plan"), "ratio"};
  // A mechanism that never engaged (guided execution is off by default)
  // reads as absent rather than as a measured zero.
  auto guided = Delta(run, "exec", "guided products");
  if (guided && *guided == 0) guided.reset();
  m["service.guided_products"] = {guided, "count"};
  m["core.propagations_per_estimate"] = {
      Ratio(Delta(run, "memo", "misses"), Delta(run, "queries", "estimates")),
      "count"};
  m["workload.exec_transpose_share"] = {Share(transposed, execs), "fraction"};
  m["workload.register_share"] = {Share(registers, n), "fraction"};
  return m;
}

// Per-layer metrics of a traced run: the tracing overhead, the replayed
// layer calls, and the per-request breakdown by layer. Adds to `m`, which
// already holds Counters().
void AddTraceMetrics(const Workload& w, const TimedRun& run,
                     const ReplayResult& replay, MetricMap* m) {
  MetricMap& layer = *m;
  const std::vector<Sample>& samples = run.load.samples;

  // Tracing overhead: the traced slices against the untraced ones.
  const Verb main_verb = w.task_name == "exec" ? Verb::kExec : Verb::kEstimate;
  std::vector<double> on, off;
  double n_on = 0, n_off = 0;
  for (const Sample& s : samples) {
    if (s.outcome != Outcome::kOk) continue;
    (s.traced ? n_on : n_off) += 1;
    if (s.verb == main_verb) {
      (s.traced ? on : off).push_back(Ms(s.end_ns - s.start_ns));
    }
  }
  layer["trace.overhead_throughput_ratio"] = {Share(n_on, n_off), "ratio"};
  layer["trace.overhead_p50_ratio"] = {
      Ratio(Percentile(on, 0.5), Percentile(off, 0.5)), "ratio"};

  auto stats = [&replay](const char* name) {
    auto it = replay.calls.find(name);
    return it == replay.calls.end() ? CallStats{} : it->second;
  };
  auto mean = [&](const char* name, double scale) -> std::optional<double> {
    const CallStats c = stats(name);
    if (c.calls == 0) return std::nullopt;
    return c.MeanUs() * scale;
  };
  const double requests = static_cast<double>(replay.requests);
  const double products = static_cast<double>(replay.products);
  layer["serve.frame_us"] = {mean("serve.frame", 1), "us"};
  layer["serve.frame_bytes"] = {
      Share(static_cast<double>(replay.frame_bytes), requests), "bytes"};
  layer["lang.parse_us"] = {mean("lang.parse", 1), "us"};
  layer["ir.canonicalize_us"] = {mean("ir.canonicalize", 1), "us"};
  layer["ir.hash_us"] = {mean("ir.hash", 1), "us"};
  layer["ir.evaluate_ms"] = {mean("ir.evaluate", 1e-3), "ms"};
  layer["ir.nodes_per_req"] = {
      Share(static_cast<double>(replay.canonical_nodes),
            static_cast<double>(stats("ir.canonicalize").calls)),
      "count"};
  layer["core.sketch_build_ms"] = {mean("core.sketch_build", 1e-3), "ms"};
  layer["core.propagate_us"] = {mean("core.propagate", 1), "us"};
  layer["core.alg1_us"] = {mean("core.alg1", 1), "us"};
  layer["matrix.product_ms"] = {mean("matrix.product", 1e-3), "ms"};
  layer["matrix.product_flops"] = {Share(replay.product_flops, products),
                                   "count"};
  layer["matrix.product_out_nnz"] = {Share(replay.product_out_nnz, products),
                                     "count"};
  layer["matrix.mtx_read_ms"] = {mean("matrix.mtx_read", 1e-3), "ms"};
  layer["ingest.stream_ms"] = {mean("ingest.stream", 1e-3), "ms"};
  layer["workload.dense_product_share"] = {
      Share(replay.weighted_dense_products, replay.weighted_products),
      "fraction"};

  // Per-request breakdown of the timed phase. Calls each request makes on
  // every path (parse, canonicalize, hash, evaluate, products) come from
  // the replay, weighted by how often each request was sent; propagation
  // runs only on memo misses, so it is the server's own misses per estimate
  // times the replayed time per propagation; a register reads a file
  // (matrix) and builds a sketch (core); the rest of the server's command
  // time is the service layer's own.
  const double coverage =
      Share(replay.weight_replayed, replay.weight_total).value_or(0);
  const double scale = coverage > 0 ? 1.0 / coverage : 0;
  double n = 0, rt_us = 0, cmd_us = 0, estimates = 0, registers = 0;
  for (const Sample& s : samples) {
    if (s.outcome != Outcome::kOk) continue;
    ++n;
    rt_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.cmd_ms >= 0) cmd_us += s.cmd_ms * 1e3;
    if (s.verb == Verb::kEstimate) ++estimates;
    if (s.verb == Verb::kRegister) ++registers;
  }
  if (n == 0) return;
  rt_us /= n;
  cmd_us /= n;
  const double propagations =
      estimates *
      layer["core.propagations_per_estimate"].value.value_or(0);
  auto replayed = [&](const char* name) {
    return stats(name).weighted_us * scale / n;
  };
  auto replayed_calls = [&](const char* name) {
    return stats(name).weighted_calls * scale / n;
  };
  struct PerRequest {
    double us, calls;
  };
  std::map<std::string, PerRequest> per;
  per["lang"] = {replayed("lang.parse"), replayed_calls("lang.parse")};
  per["ir"] = {replayed("ir.canonicalize") + replayed("ir.hash") +
                   std::max(0.0, replayed("ir.evaluate") -
                                     replayed("matrix.product")),
               replayed_calls("ir.canonicalize") +
                   replayed_calls("ir.hash") +
                   replayed_calls("ir.evaluate")};
  per["core"] = {(propagations * stats("core.propagate").MeanUs() +
                  registers * stats("core.sketch_build").MeanUs()) /
                     n,
                 (propagations + registers) / n};
  per["matrix"] = {replayed("matrix.product") +
                       registers * stats("matrix.mtx_read").MeanUs() / n,
                   replayed_calls("matrix.product") + registers / n};
  per["serve"] = {rt_us - cmd_us, 1};
  per["service"] = {std::max(0.0, cmd_us - per["lang"].us - per["ir"].us -
                                      per["core"].us - per["matrix"].us),
                    1};
  for (const auto& [name, v] : per) {
    layer["layer." + name + ".self_us"] = {v.us, "us"};
    layer["layer." + name + ".calls_per_req"] = {v.calls, "count"};
    layer["layer." + name + ".share"] = {Share(v.us, rt_us), "fraction"};
  }
  layer["trace.replay_coverage"] = {coverage, "fraction"};
}

void WriteSpans(const std::string& path, const std::vector<Span>& a,
                const std::vector<Span>& b) {
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tid\tparent\trequest\n";
  for (const auto* spans : {&a, &b}) {
    for (const Span& s : *spans) {
      out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
          << '\t' << s.parent << '\t' << s.request << '\n';
    }
  }
}

void PrintMetrics(const MetricMap& m) {
  for (const auto& [name, metric] : m) {
    if (metric.value) {
      std::printf("  %-36s %.6g %s\n", name.c_str(), *metric.value,
                  metric.unit.c_str());
    } else {
      std::printf("  %-36s absent (%s)\n", name.c_str(), metric.unit.c_str());
    }
  }
}

// The result line. An absent metric carries 0 (the line needs a number)
// and is named in `absent`.
std::string ResultJson(bool correct, const Checked& checked,
                       const MetricMap& metrics, std::string* absent) {
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checked.attempted) +
                     ", \"failed\": " + std::to_string(checked.failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    if (!metric.value) *absent += (absent->empty() ? "" : " ") + name;
    json += std::string(sep) + "\"" + JsonEscape(name) +
            "\": {\"value\": " + JsonNumber(metric.value.value_or(0.0)) +
            ", \"unit\": \"" + JsonEscape(metric.unit) + "\"}";
    sep = ", ";
  }
  return json + "}}";
}

int Run(const Args& args) {
#ifndef __OPTIMIZE__
  Fail("refusing to measure a non-optimized build");
#endif
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) Fail("unknown workload '" + args.workload + "'");
  const std::string home = args.work + "/home";
  ::mkdir(args.work.c_str(), 0755);
  ::mkdir(home.c_str(), 0755);
  ::mkdir(args.reports.c_str(), 0755);

  // The driver's own configuration (it shares the server's environment).
  const char* simd = mnc::SimdLevelName(mnc::kernels::ActiveLevel());
  const bool profile = mnc::tuning::ActiveProfileRaw() != nullptr;
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d simd=%s "
              "profile=%s build=optimized connections=%d pool=%zu\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, simd,
              profile ? "loaded" : "none", w->connections,
              w->accuracy_pool.size());
  if (std::string err = WriteOperandFiles(w.get(), args.work, args.seed);
      !err.empty()) {
    Fail(err);
  }

  // The first set-up's server serves the load; the other set-ups are
  // probes after it, each on a fresh server. Before each, where the load
  // sends no register, a round of register probes runs on the load's
  // server, which is untouched until the timed phase is over; elsewhere
  // they are a quarter second apart. Both kinds of probe thus span more of
  // the host's slow and fast spells than one burst would.
  const int64_t start_ns = NowNs();
  ServerProcess server;
  SetupResult setup;
  SetUp(args, *w, home, &server, &setup);
  const TimedRun run = RunLoad(args, *w, server);
  const int64_t load_done_ns = NowNs();
  RegisterProbes probes;
  {
    mnc::serve::ServeClient client;
    Connect(client, server.port());
    for (int k = 0; k < kSetupProbes; ++k) {
      if (w->registers_in_load) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(kRegisterRoundNs));
      } else {
        ProbeRegisters(*w, client, &probes);
      }
      ServerProcess probe;
      SetUp(args, *w, home, &probe, &setup);
      probe.Stop();
    }
  }
  server.Stop();
  const int64_t probes_done_ns = NowNs();

  std::map<std::string, LineTally> lines;  // every phase's replies
  using Tallies = std::unordered_map<std::string, LineTally>;
  for (const Tallies* tallies : std::initializer_list<const Tallies*>{
           &setup.tally, &run.load.tallies, &probes.tally}) {
    for (const auto& [line, t] : *tallies) {
      LineTally& m = lines[line];
      m.verb = t.verb;
      m.failed += t.failed;
      for (const auto& [reply, n] : t.replies) m.replies[reply] += n;
    }
  }
  ReferenceService ref(*w);
  const Checked checked =
      CheckReplies(*w, ref, lines, args.corrupt_reference);
  std::map<std::string, ErrorTally> est_error = EstimateError(*w, ref);
  const MetricMap e2e = EndToEnd(run, setup, est_error["all"].Gmean());
  MetricMap layer = Counters(run, probes);
  AddUnbounded(run, probes, &layer);
  for (const char* c : kErrorClasses) {
    layer[std::string("core.est_error_gmean.") + c] = {est_error[c].Gmean(),
                                                       "ratio"};
  }
  const int64_t checks_done_ns = NowNs();
  if (args.trace) {
    std::vector<ReplayItem> items;
    for (const auto& [line, t] : run.load.tallies) {
      if (t.timed == 0 || t.first_body.empty()) continue;
      const size_t nl = t.first_body.find('\n');
      items.push_back({line, t.verb, t.first_body.substr(0, nl),
                       t.first_body.substr(nl + 1), t.timed});
    }
    const ReplayResult replay = ReplayLayers(*w, std::move(items), 3000);
    for (const std::string& e : replay.errors) {
      std::fprintf(stderr, "replay: %s\n", e.c_str());
    }
    AddTraceMetrics(*w, run, replay, &layer);
    WriteSpans(args.reports + "/" + w->name + ".spans.tsv", run.load.spans,
               replay.spans);
  }

  // Report.
  const LoadResult& load = run.load;
  int64_t per_verb[kNumVerbs] = {0, 0, 0}, timed_failed = 0;
  size_t exec_ok = 0;
  std::vector<double> exec_ms;
  for (const Sample& s : load.samples) {
    ++per_verb[static_cast<int>(s.verb)];
    if (s.outcome != Outcome::kOk) ++timed_failed;
    if (s.verb == Verb::kExec && s.outcome == Outcome::kOk) {
      ++exec_ok;
      exec_ms.push_back(Ms(s.end_ns - s.start_ns));
    }
  }
  std::printf("timing: set-up and load %.1f s, set-up and register probes "
              "%.1f s, checks %.1f s, trace replay %.1f s\n",
              Ms(load_done_ns - start_ns) / 1e3,
              Ms(probes_done_ns - load_done_ns) / 1e3,
              Ms(checks_done_ns - probes_done_ns) / 1e3,
              Ms(NowNs() - checks_done_ns) / 1e3);
  std::printf("phase setup: %zu requests over %d set-ups\n",
              w->SetupCommands().size() * (1 + kSetupProbes),
              1 + kSetupProbes);
  if (!probes.tally.empty()) {
    std::printf("phase register probes: %lld requests in %zu rounds, %zu "
                "answered in clean rounds\n",
                static_cast<long long>(probes.sent), probes.ms.size(),
                probes.CleanMs().size());
  }
  std::printf("phase warm-up: %lld requests, %lld failed, %.1f s, host "
              "steal share %.3f in its last second\n",
              static_cast<long long>(load.warmup_requests),
              static_cast<long long>(load.warmup_failed), run.warmup_s,
              run.warmup_steal);
  std::printf("phase timed: %zu requests (%lld estimate, %lld exec, "
              "%lld register), %lld failed, %.3f s\n",
              load.samples.size(), static_cast<long long>(per_verb[0]),
              static_cast<long long>(per_verb[1]),
              static_cast<long long>(per_verb[2]),
              static_cast<long long>(timed_failed),
              static_cast<double>(run.t1 - run.t0) / 1e9);
  std::printf("checks: %lld replies checked, %lld failed (%lld mismatched "
              "the reference), failed_share %.6g\n",
              static_cast<long long>(checked.attempted),
              static_cast<long long>(checked.failed),
              static_cast<long long>(checked.mismatched),
              Share(static_cast<double>(checked.failed),
                    static_cast<double>(checked.attempted))
                  .value_or(0));
  for (size_t i = 0; i < checked.notes.size() && i < 8; ++i) {
    std::printf("  %s\n", checked.notes[i].c_str());
  }
  for (const std::string& s : load.errors) {
    std::printf("  error: %s\n", s.c_str());
  }
  if (exec_ok > 0) {
    std::printf("exec_p50_ms %.4f ms, exec_p95_ms %.4f ms over %zu execs\n",
                *Percentile(exec_ms, 0.5), *Percentile(exec_ms, 0.95),
                exec_ok);
  }
  for (const auto& [c, e] : est_error) {
    if (e.count == 0) continue;
    std::printf("est_error %s: gmean %.4g, worst %.4g, over %lld\n",
                c.c_str(), *e.Gmean(), e.worst,
                static_cast<long long>(e.count));
  }
  {
    const std::vector<double> steal = StealShares(run);
    const std::vector<bool> clean = Clean(steal, kLeastWindows);
    std::vector<double> ok(kWindows, 0);
    for (const Sample& s : load.samples) {
      if (s.outcome == Outcome::kOk) ok[WindowOf(run, s.start_ns)] += 1;
    }
    std::printf("windows: %d of %d clean; req/s and host steal share per "
                "window (* = left out):",
                static_cast<int>(std::count(clean.begin(), clean.end(), true)),
                kWindows);
    for (int k = 0; k < kWindows; ++k) {
      std::printf(" %.0f/%.3f%s",
                  ok[k] * kWindows / (Ms(run.t1 - run.t0) / 1e3), steal[k],
                  clean[k] ? "" : "*");
    }
    std::printf("\n");
  }
  std::printf("end-to-end:\n");
  PrintMetrics(e2e);
  std::printf("per-layer and workload properties:\n");
  PrintMetrics(layer);

  // --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
  const bool correct = checked.failed == 0;
  std::string absent;
  const std::string json =
      ResultJson(correct, checked, args.trace ? layer : e2e, &absent);
  std::printf("absent: %s\n", absent.empty() ? "(none)" : absent.c_str());
  std::ofstream(args.reports + "/" + w->name + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
      << ", \"simd\": \"" << simd
      << "\", \"profile\": " << (profile ? "true" : "false")
      << ", \"absent\": \"" << absent << "\", \"result\": " << json << "}\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const perfbench::SetupError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.why.c_str());
    return 2;
  }
}
