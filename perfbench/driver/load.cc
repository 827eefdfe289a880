#include "load.h"

#include <cstdio>
#include <thread>

#include "common.h"
#include "mnc/serve/client.h"
#include "text.h"

namespace perfbench {

namespace {

const char* RpcSpanName(Verb v) {
  switch (v) {
    case Verb::kEstimate: return "rpc.estimate";
    case Verb::kExec: return "rpc.exec";
    case Verb::kRegister: return "rpc.register";
  }
  return "rpc";
}

const char* ServerSpanName(Verb v) {
  switch (v) {
    case Verb::kEstimate: return "server.estimate";
    case Verb::kExec: return "server.exec";
    case Verb::kRegister: return "server.register";
  }
  return "server";
}

struct ConnectionOut {
  LoadResult result;
};

void ConnectionLoop(const Workload& w, int connection, const LoadOptions& opt,
                    ConnectionOut* out) {
  LoadResult& res = out->result;
  auto note_error = [&res](const std::string& msg) {
    if (res.errors.size() < 5) res.errors.push_back(msg);
  };
  std::unique_ptr<RequestStream> stream = w.make_stream(connection);
  mnc::serve::ServeClient client;
  if (mnc::Status s = client.Connect(opt.port); !s.ok()) {
    note_error("connect: " + s.ToString());
    return;
  }
  const int64_t span_base = static_cast<int64_t>(connection + 1) << 40;
  int64_t next_span = 1;
  int64_t task = -1, task_start = 0;
  for (;;) {
    Request req = stream->Next();
    Sample s;
    s.start_ns = NowNs();
    if (s.start_ns >= opt.timed_end_ns.load()) break;
    auto reply = client.Call(req.line);
    s.end_ns = NowNs();
    s.verb = req.verb;
    if (req.task != task) {
      task = req.task;
      task_start = s.start_ns;
    }
    s.task = req.task;
    s.task_start_ns = task_start;
    s.task_end = req.task_end;
    const int64_t timed_start = opt.timed_start_ns.load();
    const bool timed = s.start_ns >= timed_start;

    LineTally& tally = res.tallies[req.line];
    tally.verb = req.verb;
    if (timed) ++tally.timed;
    if (!reply.ok()) {
      s.outcome = Outcome::kTransport;
      note_error(req.line.substr(0, 80) + ": " + reply.status().ToString());
    } else if (!reply->ok()) {
      s.outcome = Outcome::kTypedError;
      note_error(req.line.substr(0, 80) + ": " + reply->status.ToString());
    } else if (reply->degraded) {
      s.outcome = Outcome::kDegraded;
      note_error(req.line.substr(0, 80) + ": degraded, served by " +
                 reply->served_by);
    }
    if (s.outcome == Outcome::kOk) {
      s.cmd_ms = CommandMillis(reply->body).value_or(-1.0);
      s.memo_hit = EstimateMemoHit(reply->body);
      ++tally.replies[NormalizedReply(req.verb, reply->body)];
      if (tally.first_body.empty()) {
        tally.first_body = reply->served_by + "\n" + reply->body;
      }
    } else {
      ++tally.failed;
    }

    if (timed) {
      if (opt.trace_slice_ns > 0 &&
          ((s.start_ns - timed_start) / opt.trace_slice_ns) % 2 == 1) {
        s.traced = true;
        const int64_t rpc = span_base | next_span++;
        res.spans.push_back({RpcSpanName(s.verb), s.start_ns, s.end_ns, rpc,
                             0, rpc});
        if (s.cmd_ms >= 0) {
          // Only the command's duration is known, not its offset inside
          // the round trip: centre it.
          const int64_t cmd_ns = static_cast<int64_t>(s.cmd_ms * 1e6);
          const int64_t begin =
              s.start_ns + (s.end_ns - s.start_ns - cmd_ns) / 2;
          res.spans.push_back({ServerSpanName(s.verb), begin, begin + cmd_ns,
                               span_base | next_span++, rpc, rpc});
        }
      }
      res.samples.push_back(s);
    } else {
      ++res.warmup_requests;
      if (s.outcome != Outcome::kOk) ++res.warmup_failed;
    }
    if (s.outcome == Outcome::kTransport && !client.connected()) {
      if (mnc::Status c = client.Connect(opt.port); !c.ok()) {
        note_error("reconnect: " + c.ToString());
        return;
      }
    }
  }
}

}  // namespace

std::string NormalizedReply(Verb verb, const std::string& body) {
  if (verb == Verb::kEstimate) return EstimateCore(body);
  const BodyFacts f = ParseFacts(body);
  char buf[128];
  if (verb == Verb::kExec) {
    std::snprintf(buf, sizeof(buf), "%lld x %lld, %lld non-zeros",
                  static_cast<long long>(f.rows.value_or(-1)),
                  static_cast<long long>(f.cols.value_or(-1)),
                  static_cast<long long>(f.nnz.value_or(-1)));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld x %lld, sparsity %.6g",
                  static_cast<long long>(f.rows.value_or(-1)),
                  static_cast<long long>(f.cols.value_or(-1)),
                  f.sparsity.value_or(-1.0));
  }
  return buf;
}

LoadResult RunClosedLoop(const Workload& w, const LoadOptions& opt) {
  std::vector<ConnectionOut> outs(static_cast<size_t>(w.connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back(ConnectionLoop, std::cref(w), c, std::cref(opt),
                         &outs[c]);
  }
  for (std::thread& t : threads) t.join();

  LoadResult merged;
  for (ConnectionOut& o : outs) {
    LoadResult& r = o.result;
    merged.samples.insert(merged.samples.end(), r.samples.begin(),
                          r.samples.end());
    merged.spans.insert(merged.spans.end(), r.spans.begin(), r.spans.end());
    merged.warmup_requests += r.warmup_requests;
    merged.warmup_failed += r.warmup_failed;
    for (std::string& e : r.errors) {
      if (merged.errors.size() < 5) merged.errors.push_back(std::move(e));
    }
    for (auto& [line, t] : r.tallies) {
      LineTally& m = merged.tallies[line];
      m.verb = t.verb;
      m.failed += t.failed;
      m.timed += t.timed;
      if (m.first_body.empty()) m.first_body = std::move(t.first_body);
      for (const auto& [reply, n] : t.replies) m.replies[reply] += n;
    }
  }
  return merged;
}

}  // namespace perfbench
