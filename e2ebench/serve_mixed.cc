// serve_mixed: an in-process serve::Server (2 engine workers) driven over
// loopback by a single-threaded open-loop client in the same process.
//
// Requests are sent on a fixed schedule (kOfferedRate, evenly spaced) in
// blocks of ten — four cold, three hit, three append — shuffled per block
// from the seed, so every run has exactly the same mix:
//   cold   a seeded row permutation of one of four 4,000 x 10 categorical
//          tables: new bytes, so the catalog misses and the job profiles;
//   hit    one of those four tables verbatim, published during set-up, so
//          the catalog answers without profiling;
//   append a seeded permutation of one of two 4,000-row tables, sent as a
//          3,000-row base plus 1-3 headerless batches, so the job runs the
//          IncrementalProfiler (PLI merge-append) path.
// Every request is timed from when it was due, not when it was sent, so a
// stalled client or a backlog shows in the latency (and the client's own
// lateness is reported as bench.send_lag_p90_ms). The traced run ends with
// kBursts bursts of kBurstJobs cold jobs submitted at once and times their
// drain (serve.burst_jobs_per_s).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/csv.h"
#include "layers.h"
#include "serve/server.h"
#include "tables.h"

namespace e2e {

namespace {

// About 30% of the cold-job capacity the burst phase measured when the
// benchmark was defined (49 jobs/s median over six seeds on a 4-vCPU
// x86-64 VM, but 29 jobs/s in a slow hour of the same VM); fixed here, never
// recomputed at run time. At 60% the slow hours pushed the server to
// saturation and the latencies of one seed to the next apart by 2x.
constexpr double kOfferedRate = 15.0;  // requests per second
// Two workers leave CPU for the client and the server's connection threads
// on a 4-core host. With four, they competed: a cold job's median latency
// rose from 21 to 30 ms.
constexpr int kServerThreads = 2;
// One submit connection plus result connections, at most nproc in all.
constexpr int kMaxResultConnections = 3;
constexpr size_t kAppendBaseRows = 3'000;
constexpr int kBurstJobs = 24;
constexpr int kBursts = 9;
constexpr double kTracedSeconds = 4.0;
constexpr int kSetups = 5;
// A failed or refused request counts as missing every latency limit.
constexpr double kFailedLatencyMs = 1e9;

enum class Kind { kCold, kHit, kAppend };
constexpr const char* kKindNames[] = {"cold", "hit", "append"};

struct Request {
  Kind kind = Kind::kCold;
  int table = 0;    // Index into the cold or append tables.
  int batches = 0;  // Append only.
  double due = 0;   // Steady-clock seconds.
  double sent = 0;
  double done = 0;
  // Read from the response as soon as it arrives; the frame itself is not
  // kept, so a long run does not hold every report in memory.
  std::string error;          // Why the request failed; empty if it did not.
  double queue_wait_ms = -1;  // From the result frame.
};

// ---- Framing: a 4-byte big-endian length, then that many bytes of JSON.

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MUDS_CHECK_MSG(fd_ >= 0, "socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    QuickAck();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    MUDS_CHECK_MSG(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                   "cannot connect to the in-process server");
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void Send(const std::string& payload) {
    std::string frame(4, '\0');
    const uint32_t length = htonl(static_cast<uint32_t>(payload.size()));
    std::memcpy(frame.data(), &length, 4);
    frame += payload;
    const char* data = frame.data();
    size_t left = frame.size();
    while (left > 0) {
      const ssize_t wrote = ::send(fd_, data, left, MSG_NOSIGNAL);
      if (wrote < 0 && errno == EINTR) continue;
      MUDS_CHECK_MSG(wrote > 0, "send to the server failed");
      data += wrote;
      left -= static_cast<size_t>(wrote);
    }
    QuickAck();
  }

  std::string Receive() {
    uint32_t length = 0;
    ReadExact(&length, 4);
    QuickAck();
    std::string payload(ntohl(length), '\0');
    ReadExact(payload.data(), payload.size());
    return payload;
  }

 private:
  // The server writes a frame's length and body with two send() calls on a
  // socket with Nagle's algorithm on, so the body waits for the client to
  // acknowledge the length. Quick-ack mode makes that acknowledgement
  // immediate; without it a delayed ACK adds ~40 ms to every response
  // (what a plain client sees; see e2ebench/README.md). Linux leaves
  // quick-ack mode on its own, so it is re-armed around every exchange.
  void QuickAck() {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  }

  void ReadExact(void* buffer, size_t n) {
    char* out = static_cast<char*>(buffer);
    while (n > 0) {
      const ssize_t got = ::recv(fd_, out, n, 0);
      if (got < 0 && errno == EINTR) continue;
      MUDS_CHECK_MSG(got > 0, "the server closed the connection");
      out += got;
      n -= static_cast<size_t>(got);
    }
  }

  int fd_ = -1;
};

std::string SubmitFrame(const std::string& csv,
                        const std::vector<std::string>& appends) {
  std::string frame =
      "{\"cmd\":\"submit\",\"algorithm\":\"muds\",\"seed\":1,\"csv\":" +
      muds::json::Quote(csv);
  if (!appends.empty()) {
    frame += ",\"appends\":[";
    for (size_t i = 0; i < appends.size(); ++i) {
      if (i > 0) frame += ',';
      frame += muds::json::Quote(appends[i]);
    }
    frame += ']';
  }
  return frame + "}";
}

std::string ResultFrame(int64_t job, bool wait) {
  return "{\"cmd\":\"result\",\"job\":" + std::to_string(job) +
         (wait ? "}" : ",\"timeout_ms\":0}");
}

// The generated inputs of one run and the payloads built from them.
class Inputs {
 public:
  explicit Inputs(uint64_t seed) : rng_(seed ^ 0x5e12e0u) {
    for (const muds::Relation& table : ServeColdTables()) {
      cold_.push_back(CsvLines::From(table));
      hot_frames_.push_back(
          SubmitFrame(muds::CsvWriter::ToString(table), {}));
    }
    for (const muds::Relation& table : ServeAppendTables()) {
      appends_.push_back(CsvLines::From(table));
    }
  }

  int NumCold() const { return static_cast<int>(cold_.size()); }
  int NumAppend() const { return static_cast<int>(appends_.size()); }

  // The submit frame of `request`; cold and append payloads draw a fresh
  // row permutation, so call this once per request, in schedule order.
  std::string Frame(const Request& request) {
    if (request.kind == Kind::kHit) return hot_frames_[request.table];
    const CsvLines& lines = request.kind == Kind::kCold
                                ? cold_[request.table]
                                : appends_[request.table];
    const std::vector<uint32_t> order = Permutation(lines.rows.size(), &rng_);
    if (request.kind == Kind::kCold) {
      return SubmitFrame(lines.Join(order, 0, order.size(), true), {});
    }
    std::vector<std::string> batches;
    const size_t rest = order.size() - kAppendBaseRows;
    for (int b = 0; b < request.batches; ++b) {
      batches.push_back(lines.Join(
          order, kAppendBaseRows + rest * b / request.batches,
          kAppendBaseRows + rest * (b + 1) / request.batches, false));
    }
    return SubmitFrame(lines.Join(order, 0, kAppendBaseRows, true), batches);
  }

 private:
  muds::Rng rng_;
  std::vector<CsvLines> cold_;
  std::vector<CsvLines> appends_;
  std::vector<std::string> hot_frames_;
};

std::string TableOf(const Request& request) {
  return (request.kind == Kind::kAppend ? "serve_append_" : "serve_cold_") +
         std::to_string(request.table);
}

// Checks a result frame: the job is done, was (only) a hit when it should
// be, and its report holds the table's expected sets.
void Inspect(const std::string& response, Request* request) {
  const muds::Result<muds::json::Value> parsed = muds::json::Parse(response);
  const muds::json::Value* result =
      parsed.ok() ? parsed.value().Find("result") : nullptr;
  if (result == nullptr) {
    request->error = "has no result: " + response.substr(0, 200);
    return;
  }
  if (const muds::json::Value* wait = parsed.value().Find("queue_wait_ns")) {
    request->queue_wait_ms = wait->number / 1e6;
  }
  const muds::json::Value* hit = parsed.value().Find("catalog_hit");
  const bool expect_hit = request->kind == Kind::kHit;
  const muds::Result<Summary> summary = SummarizeReport(*result);
  if (hit == nullptr || hit->boolean != expect_hit) {
    request->error = expect_hit ? "missed the catalog" : "hit the catalog";
  } else if (!summary.ok()) {
    request->error = summary.status().ToString();
  } else if (!(summary.value() == Expected(TableOf(*request)))) {
    request->error = "returned " + summary.value().ToString();
  }
}

// The single-threaded client: submits on one connection exactly when each
// request is due and waits for results on the others. The protocol's
// `result` call blocks until its job ends, so each result connection
// follows one job. With `sweep`, a connection that frees up first polls
// (timeout 0) the jobs still waiting for a connection, so a quick job
// queued behind slow ones is collected at the next completion; a burst,
// which only times its last result, skips that.
class Client {
 public:
  explicit Client(int port) : submit_(port) {
    const int cpus = static_cast<int>(std::thread::hardware_concurrency());
    const int results =
        std::max(1, std::min(kMaxResultConnections, cpus - 1));
    for (int i = 0; i < results; ++i) {
      results_.push_back(std::make_unique<Connection>(port));
      following_.push_back(-1);
    }
  }

  void Run(std::vector<Request>* requests, Inputs* inputs,
           bool sweep = true) {
    std::vector<Request>& all = *requests;
    std::deque<size_t> waiting;  // Submitted, no result connection yet.
    std::vector<int64_t> job(all.size(), -1);
    size_t next = 0;
    size_t open = 0;
    std::string frame = all.empty() ? "" : inputs->Frame(all[0]);
    const auto finish = [&](size_t i, const std::string& response) {
      all[i].done = Now();
      Inspect(response, &all[i]);
      --open;
    };

    while (next < all.size() || open > 0) {
      const double now = Now();
      if (next < all.size() && now >= all[next].due) {
        Request& request = all[next];
        request.sent = now;
        submit_.Send(frame);
        std::string response = submit_.Receive();
        const muds::Result<muds::json::Value> parsed =
            muds::json::Parse(response);
        const muds::json::Value* id =
            parsed.ok() ? parsed.value().Find("job") : nullptr;
        if (id != nullptr && id->IsNumber()) {
          job[next] = static_cast<int64_t>(id->number);
          waiting.push_back(next);
          ++open;
        } else {
          request.done = Now();
          request.error = "refused: " + response;
        }
        if (++next < all.size()) frame = inputs->Frame(all[next]);
        continue;
      }
      for (size_t c = 0; c < results_.size() && !waiting.empty(); ++c) {
        if (following_[c] >= 0) continue;
        following_[c] = static_cast<int64_t>(waiting.front());
        results_[c]->Send(ResultFrame(job[waiting.front()], true));
        waiting.pop_front();
      }

      std::vector<pollfd> fds;
      for (size_t c = 0; c < results_.size(); ++c) {
        if (following_[c] >= 0) fds.push_back({results_[c]->fd(), POLLIN, 0});
      }
      timespec timeout{};
      const timespec* wait = nullptr;
      if (next < all.size()) {
        const double left = std::max(0.0, all[next].due - Now());
        timeout.tv_sec = static_cast<time_t>(left);
        timeout.tv_nsec = static_cast<long>(
            (left - static_cast<double>(timeout.tv_sec)) * 1e9);
        wait = &timeout;
      }
      const int ready = ::ppoll(fds.data(), fds.size(), wait, nullptr);
      if (ready <= 0) continue;
      for (size_t c = 0; c < results_.size(); ++c) {
        if (following_[c] < 0) continue;
        pollfd probe{results_[c]->fd(), POLLIN, 0};
        if (::poll(&probe, 1, 0) <= 0) continue;
        finish(static_cast<size_t>(following_[c]), results_[c]->Receive());
        following_[c] = -1;
        for (auto it = waiting.begin(); sweep && it != waiting.end();) {
          results_[c]->Send(ResultFrame(job[*it], false));
          std::string response = results_[c]->Receive();
          if (response.find("\"code\":\"DeadlineExceeded\"") !=
              std::string::npos) {
            ++it;
            continue;
          }
          finish(*it, response);
          it = waiting.erase(it);
        }
      }
    }
  }

 private:
  Connection submit_;
  std::vector<std::unique_ptr<Connection>> results_;
  std::vector<int64_t> following_;  // Request index per result connection.
};

// Everything one run needs, built (and timed) as the set-up.
struct Setup {
  explicit Setup(uint64_t seed) : inputs(seed) {
    muds::serve::Server::Options options;
    options.num_threads = kServerThreads;
    server = std::make_unique<muds::serve::Server>(options);
    const muds::Status started = server->Start();
    MUDS_CHECK_MSG(started.ok(), "the in-process server did not start");
    client = std::make_unique<Client>(server->port());
    // Publish the hit payloads so hit requests find them in the catalog.
    std::vector<Request> publish(static_cast<size_t>(inputs.NumCold()));
    for (size_t i = 0; i < publish.size(); ++i) {
      publish[i].kind = Kind::kHit;
      publish[i].table = static_cast<int>(i);
    }
    client->Run(&publish, &inputs);
  }

  ~Setup() {
    client.reset();  // Close the connections before the server drains.
    server.reset();
  }

  Inputs inputs;
  std::unique_ptr<muds::serve::Server> server;
  std::unique_ptr<Client> client;
};

// The open-loop schedule for `seconds` starting at `start`.
std::vector<Request> Schedule(double start, double seconds, muds::Rng* rng,
                              const Inputs& inputs) {
  const size_t count = static_cast<size_t>(seconds * kOfferedRate);
  std::vector<Request> requests(count);
  static constexpr Kind kBlock[] = {
      Kind::kCold, Kind::kCold, Kind::kCold,   Kind::kCold,   Kind::kHit,
      Kind::kHit,  Kind::kHit,  Kind::kAppend, Kind::kAppend, Kind::kAppend};
  std::vector<Kind> block;
  int appends = 0;
  for (size_t i = 0; i < count; ++i) {
    if (block.empty()) {
      for (uint32_t k : Permutation(std::size(kBlock), rng)) {
        block.push_back(kBlock[k]);
      }
    }
    Request& request = requests[i];
    request.kind = block.back();
    block.pop_back();
    const int tables = request.kind == Kind::kAppend ? inputs.NumAppend()
                                                     : inputs.NumCold();
    request.table = static_cast<int>(rng->NextBelow(tables));
    if (request.kind == Kind::kAppend) request.batches = 1 + appends++ % 3;
    request.due = start + static_cast<double>(i) / kOfferedRate;
  }
  return requests;
}

// Reports every failed request and collects the request timings (ms).
struct Checked {
  std::vector<double> latency_ms;  // Failures count as kFailedLatencyMs.
  std::vector<double> by_kind_ms[3];
  std::vector<double> queue_wait_ms;
  std::vector<double> send_lag_ms;
};

Checked CheckAll(const std::vector<Request>& requests, Report* report) {
  Checked checked;
  for (const Request& request : requests) {
    ++report->attempted;
    checked.send_lag_ms.push_back((request.sent - request.due) * 1e3);
    if (!request.error.empty()) {
      report->Fail(std::string(kKindNames[static_cast<int>(request.kind)]) +
                   " request on " + TableOf(request) + " " + request.error);
    }
    if (request.queue_wait_ms >= 0) {
      checked.queue_wait_ms.push_back(request.queue_wait_ms);
    }
    const double latency = request.error.empty()
                               ? (request.done - request.due) * 1e3
                               : kFailedLatencyMs;
    checked.latency_ms.push_back(latency);
    checked.by_kind_ms[static_cast<int>(request.kind)].push_back(latency);
  }
  return checked;
}

// The traced pass: a shorter window of the same traffic with the
// TraceCollector on. Worker time is the wall of its layer table: the sum of
// serveJob spans, of which the layer spans inside each job are the
// attributed part.
void TracedPass(const Args& args, Setup* setup, muds::Rng* rng,
                double untraced_p50_ms, Report* report) {
  const muds::MetricsSnapshot before =
      muds::MetricsRegistry::Global().Snapshot();
  muds::TraceCollector& tracer = muds::TraceCollector::Global();
  tracer.Start();
  std::vector<Request> traced =
      Schedule(Now() + 0.01, kTracedSeconds, rng, setup->inputs);
  setup->client->Run(&traced, &setup->inputs);
  tracer.Stop();
  const muds::MetricsSnapshot delta = muds::MetricsRegistry::Delta(
      before, muds::MetricsRegistry::Global().Snapshot());
  const Checked checked = CheckAll(traced, report);

  const std::string trace_path = args.out_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  const muds::Status written = tracer.WriteChromeTrace(trace_path);
  if (!written.ok()) report->Fail("trace: " + written.ToString());

  const SpanTotals spans = AttributeSpans(tracer.Events());
  AddLayerMetrics(spans, delta, spans.Total("serveJob"), 0, report);
  auto& m = report->metrics;
  const auto jobs = spans.durations.find("serveJob");
  m["serve.run_ms_p50"] =
      jobs == spans.durations.end() ? 0 : Percentile(jobs->second, 0.5) * 1e3;
  const double hits = Delta(delta, "serve.catalog_hits");
  const double lookups = hits + Delta(delta, "serve.catalog_misses");
  m["serve.catalog_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  m["serve.catalog_coalesced"] = Delta(delta, "serve.catalog_coalesced");
  m["serve.jobs_rejected"] = Delta(delta, "serve.jobs_rejected");
  m["trace_overhead_ratio"] =
      Percentile(checked.latency_ms, 0.5) / untraced_p50_ms;
}

}  // namespace

void RunServeMixed(const Args& args, Report* report) {
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const double t0 = Now();
    setup = std::make_unique<Setup>(args.seed);
    setup_seconds.push_back(Now() - t0);
  }
  auto& m = report->metrics;
  m["setup_s"] = Percentile(setup_seconds, 0.5);

  muds::Rng rng(args.seed);
  std::vector<Request> requests =
      Schedule(Now() + 0.01, args.seconds, &rng, setup->inputs);
  setup->client->Run(&requests, &setup->inputs);
  m["peak_rss_mb"] = PeakRssMb();
  const Checked checked = CheckAll(requests, report);
  m["latency_p50_ms"] = Percentile(checked.latency_ms, 0.5);
  m["latency_p90_ms"] = Percentile(checked.latency_ms, 0.9);
  m["bench.latency_samples"] = static_cast<double>(checked.latency_ms.size());
  m["bench.send_lag_p90_ms"] = Percentile(checked.send_lag_ms, 0.9);
  m["serve.latency_cold_p50_ms"] = Percentile(checked.by_kind_ms[0], 0.5);
  m["serve.latency_hit_p50_ms"] = Percentile(checked.by_kind_ms[1], 0.5);
  m["serve.latency_append_p50_ms"] = Percentile(checked.by_kind_ms[2], 0.5);
  m["serve.queue_wait_ms_p50"] = Percentile(checked.queue_wait_ms, 0.5);
  m["serve.queue_wait_ms_p90"] = Percentile(checked.queue_wait_ms, 0.9);
  std::printf("serve_mixed: %zu requests at %.0f/s, p50 %.2f ms, p90 %.2f ms\n",
              requests.size(), kOfferedRate, m["latency_p50_ms"],
              m["latency_p90_ms"]);
  if (!args.trace) return;

  TracedPass(args, setup.get(), &rng, m["latency_p50_ms"], report);
  // Bursts last: their cold jobs push the hit payloads out of the catalog's
  // LRU.
  std::vector<double> burst_rates;
  for (int b = 0; b < kBursts; ++b) {
    std::vector<Request> burst(kBurstJobs);
    for (Request& request : burst) {
      request.table = static_cast<int>(rng.NextBelow(setup->inputs.NumCold()));
    }
    setup->client->Run(&burst, &setup->inputs, /*sweep=*/false);
    double last = 0;
    for (Request& request : burst) {
      last = std::max(last, request.done);
      request.due = request.sent;  // Burst latency is not reported.
    }
    burst_rates.push_back(kBurstJobs / (last - burst.front().sent));
    CheckAll(burst, report);
  }
  m["serve.burst_jobs_per_s"] = Percentile(burst_rates, 0.5);
}

}  // namespace e2e
