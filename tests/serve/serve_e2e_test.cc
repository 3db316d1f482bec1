// End-to-end serving test: an in-process serve::Server on an ephemeral
// port, driven through the real socket protocol (4-byte big-endian length
// + JSON frames). Pins the full request surface — submit, duplicate
// submit answered from the catalog, append path, status, result,
// cancel, stats, admission errors, and the protocol shutdown drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "core/profiler.h"
#include "core/report.h"
#include "gtest/gtest.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload/generators.h"

namespace muds {
namespace serve {
namespace {

const char kCsv[] =
    "id,city,zip\n"
    "1,ulm,89073\n"
    "2,ulm,89073\n"
    "3,berlin,10115\n";

/// Minimal blocking protocol client for one connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << "connect: " << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One request -> one parsed response. Fails the test on frame errors.
  json::Value Rpc(const std::string& request) {
    WriteAll(request);
    uint32_t be_length = 0;
    ReadAll(reinterpret_cast<char*>(&be_length), sizeof(be_length));
    const uint32_t length = ntohl(be_length);
    std::string payload(length, '\0');
    ReadAll(payload.data(), length);
    Result<json::Value> parsed = json::Parse(payload);
    EXPECT_TRUE(parsed.ok()) << payload;
    return parsed.ok() ? std::move(parsed).value() : json::Value();
  }

 private:
  void WriteAll(const std::string& payload) {
    const uint32_t be_length = htonl(static_cast<uint32_t>(payload.size()));
    std::string frame(reinterpret_cast<const char*>(&be_length),
                      sizeof(be_length));
    frame += payload;
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send: " << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }
  void ReadAll(char* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      ASSERT_GT(r, 0) << "recv: " << std::strerror(errno);
      got += static_cast<size_t>(r);
    }
  }

  int fd_ = -1;
};

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

double Number(const json::Value& object, const char* key) {
  const json::Value* found = object.Find(key);
  EXPECT_NE(found, nullptr) << key;
  return found != nullptr && found->IsNumber() ? found->number : -1;
}

std::string Text(const json::Value& object, const char* key) {
  const json::Value* found = object.Find(key);
  EXPECT_NE(found, nullptr) << key;
  return found != nullptr && found->IsString() ? found->string : "";
}

class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options options;
    options.port = 0;          // Ephemeral.
    // Two dedicated workers (the pool counts its caller as one of its
    // threads, and jobs are never run by the caller): jobs run
    // concurrently.
    options.num_threads = 3;
    options.max_jobs = 8;
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override {
    server_->Shutdown();
    server_->Wait();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeE2eTest, SubmitResultMatchesInProcessProfileAndDuplicateHits) {
  Client client(server_->port());

  // First submission computes.
  json::Value submitted = client.Rpc(
      "{\"cmd\":\"submit\",\"csv\":\"" + Escape(kCsv) + "\"}");
  ASSERT_TRUE(submitted.Find("ok")->boolean);
  const int64_t job = static_cast<int64_t>(Number(submitted, "job"));

  json::Value done = client.Rpc(
      "{\"cmd\":\"result\",\"job\":" + std::to_string(job) +
      ",\"timeout_ms\":60000}");
  ASSERT_TRUE(done.Find("ok")->boolean);
  EXPECT_EQ(Text(done, "state"), "done");
  EXPECT_FALSE(done.Find("catalog_hit")->boolean);
  EXPECT_NE(done.Find("queue_wait_ns"), nullptr);
  ASSERT_NE(done.Find("serve"), nullptr);
  EXPECT_NE(done.Find("serve")->Find("serve.jobs_completed"), nullptr);

  // The served result document is byte-identical to the in-process
  // profiler's JSON report for the same input (num_threads=1 is forced
  // per job and the engine is bit-identical across thread counts).
  ProfileOptions options;
  options.num_threads = 1;
  const Result<ProfilingResult> oracle = ProfileCsvString(kCsv, options);
  ASSERT_TRUE(oracle.ok());
  const Result<json::Value> expected =
      json::Parse(ProfilingResultToJson(oracle.value()));
  ASSERT_TRUE(expected.ok());
  const json::Value* served = done.Find("result");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(json::Dump(*served->Find("inds")), json::Dump(*expected.value().Find("inds")));
  EXPECT_EQ(json::Dump(*served->Find("uccs")), json::Dump(*expected.value().Find("uccs")));
  EXPECT_EQ(json::Dump(*served->Find("fds")), json::Dump(*expected.value().Find("fds")));
  EXPECT_EQ(json::Dump(*served->Find("columns")),
            json::Dump(*expected.value().Find("columns")));

  // Duplicate submission: answered from the catalog.
  json::Value dup = client.Rpc(
      "{\"cmd\":\"submit\",\"csv\":\"" + Escape(kCsv) + "\"}");
  ASSERT_TRUE(dup.Find("ok")->boolean);
  json::Value dup_done = client.Rpc(
      "{\"cmd\":\"result\",\"job\":" +
      std::to_string(static_cast<int64_t>(Number(dup, "job"))) +
      ",\"timeout_ms\":60000}");
  ASSERT_TRUE(dup_done.Find("ok")->boolean);
  EXPECT_TRUE(dup_done.Find("catalog_hit")->boolean);
  EXPECT_EQ(json::Dump(*dup_done.Find("result")->Find("inds")),
            json::Dump(*served->Find("inds")));

  // Stats reflect both jobs and the hit.
  json::Value stats = client.Rpc("{\"cmd\":\"stats\"}");
  ASSERT_TRUE(stats.Find("ok")->boolean);
  EXPECT_GE(Number(*stats.Find("serve"), "serve.jobs_completed"), 2);
  EXPECT_GE(Number(*stats.Find("serve"), "serve.catalog_hits"), 1);

  // Both frames carry every registered serve.* counter, zeros included:
  // they walk the registry, the one count of jobs and catalog events.
  std::vector<std::string> registered;
  for (const auto& [name, value] : MetricsRegistry::Global().Snapshot()) {
    if (name.rfind("serve.", 0) == 0) registered.push_back(name);
  }
  for (const char* name : {"serve.catalog_evictions", "serve.jobs_expired"}) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << name;
  }
  for (const json::Value* frame : {done.Find("serve"), stats.Find("serve")}) {
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->object.size(), registered.size());
    for (const std::string& name : registered) {
      EXPECT_NE(frame->Find(name), nullptr) << name;
    }
  }
  // Live state rides next to the counters; the catalog's events are the
  // serve.catalog_* counters, so its object holds only `entries`.
  ASSERT_NE(stats.Find("catalog"), nullptr);
  EXPECT_EQ(stats.Find("catalog")->object.size(), 1u);
  EXPECT_GE(Number(*stats.Find("catalog"), "entries"), 1);
  ASSERT_NE(stats.Find("scheduler"), nullptr);
  EXPECT_GE(Number(*stats.Find("scheduler"), "queued"), 0);
  EXPECT_GE(Number(*stats.Find("scheduler"), "running"), 0);
}

TEST_F(ServeE2eTest, AppendSubmissionUsesFastPathAndMatchesConcatenation) {
  Client client(server_->port());
  const std::string base = kCsv;
  const std::string delta = "4,potsdam,14467\n5,ulm,89073\n";

  json::Value submitted = client.Rpc(
      "{\"cmd\":\"submit\",\"csv\":\"" + Escape(base) +
      "\",\"appends\":[\"" + Escape(delta) + "\"]}");
  ASSERT_TRUE(submitted.Find("ok")->boolean) << json::Dump(submitted);
  json::Value done = client.Rpc(
      "{\"cmd\":\"result\",\"job\":" +
      std::to_string(static_cast<int64_t>(Number(submitted, "job"))) +
      ",\"timeout_ms\":60000}");
  ASSERT_TRUE(done.Find("ok")->boolean) << json::Dump(done);

  ProfileOptions options;
  options.num_threads = 1;
  const Result<ProfilingResult> oracle =
      ProfileCsvString(base + delta, options);
  ASSERT_TRUE(oracle.ok());
  const Result<json::Value> expected =
      json::Parse(ProfilingResultToJson(oracle.value()));
  ASSERT_TRUE(expected.ok());
  const json::Value* served = done.Find("result");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(json::Dump(*served->Find("inds")), json::Dump(*expected.value().Find("inds")));
  EXPECT_EQ(json::Dump(*served->Find("uccs")), json::Dump(*expected.value().Find("uccs")));
  EXPECT_EQ(json::Dump(*served->Find("fds")), json::Dump(*expected.value().Find("fds")));
}

TEST_F(ServeE2eTest, ConcurrentDuplicateClientsAllSucceed) {
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &hits, &failures] {
      Client client(server_->port());
      json::Value submitted = client.Rpc(
          "{\"cmd\":\"submit\",\"csv\":\"" + Escape(kCsv) + "\"}");
      const json::Value* ok = submitted.Find("ok");
      if (ok == nullptr || !ok->boolean) {
        failures.fetch_add(1);
        return;
      }
      const json::Value* job = submitted.Find("job");
      if (job == nullptr || !job->IsNumber()) {
        failures.fetch_add(1);
        return;
      }
      json::Value done = client.Rpc(
          "{\"cmd\":\"result\",\"job\":" +
          std::to_string(static_cast<int64_t>(job->number)) +
          ",\"timeout_ms\":60000}");
      const json::Value* done_ok = done.Find("ok");
      if (done_ok == nullptr || !done_ok->boolean) {
        failures.fetch_add(1);
        return;
      }
      if (done.Find("catalog_hit")->boolean) hits.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // One computes, every duplicate is served from the catalog (ready hit
  // or coalesced wait — both set catalog_hit).
  EXPECT_EQ(hits.load(), kClients - 1);
}

TEST_F(ServeE2eTest, ConcurrentJobsReportTheirSoloMetrics) {
  // Two different relations submitted at once to the 2-worker server: each
  // result's metrics hold that job's work only, as its solo profile does.
  const std::vector<std::string> inputs = {
      CsvWriter::ToString(MakeUniprotLike(3000, 8, /*seed=*/1)),
      CsvWriter::ToString(MakeNcvoterLike(3000, 12, /*seed=*/2))};
  std::vector<std::map<std::string, int64_t>> served(inputs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < inputs.size(); ++i) {
    threads.emplace_back([this, &inputs, &served, i] {
      Client client(server_->port());
      json::Value submitted = client.Rpc(
          "{\"cmd\":\"submit\",\"csv\":\"" + Escape(inputs[i]) + "\"}");
      ASSERT_TRUE(submitted.Find("ok")->boolean) << json::Dump(submitted);
      json::Value done = client.Rpc(
          "{\"cmd\":\"result\",\"job\":" +
          std::to_string(static_cast<int64_t>(Number(submitted, "job"))) +
          ",\"timeout_ms\":60000}");
      ASSERT_TRUE(done.Find("ok")->boolean) << json::Dump(done);
      MetricsSnapshot job_metrics;
      for (const auto& [name, value] :
           done.Find("result")->Find("metrics")->object) {
        job_metrics.emplace_back(name, static_cast<int64_t>(value.number));
      }
      served[i] = ScheduleFreeMetrics(job_metrics);
    });
  }
  for (std::thread& thread : threads) thread.join();

  ProfileOptions options;
  options.num_threads = 1;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Result<ProfilingResult> solo = ProfileCsvString(inputs[i], options);
    ASSERT_TRUE(solo.ok());
    EXPECT_GT(served[i].count("muds.fd_checks"), 0u) << "input " << i;
    EXPECT_EQ(served[i], ScheduleFreeMetrics(solo.value().metrics))
        << "input " << i;
  }
}

TEST_F(ServeE2eTest, CancelAndErrorsAndUnknownCommands) {
  Client client(server_->port());

  // Unknown job.
  json::Value missing = client.Rpc("{\"cmd\":\"status\",\"job\":4242}");
  EXPECT_FALSE(missing.Find("ok")->boolean);
  EXPECT_EQ(Text(missing, "code"), "NotFound");

  // Unknown command.
  json::Value bogus = client.Rpc("{\"cmd\":\"frobnicate\"}");
  EXPECT_FALSE(bogus.Find("ok")->boolean);

  // Malformed JSON: server answers with an error frame instead of dying.
  json::Value bad = client.Rpc("{not json");
  EXPECT_FALSE(bad.Find("ok")->boolean);

  // Submit without csv.
  json::Value nocsv = client.Rpc("{\"cmd\":\"submit\"}");
  EXPECT_FALSE(nocsv.Find("ok")->boolean);
  EXPECT_EQ(Text(nocsv, "code"), "InvalidArgument");

  // A parse failure inside the job is a job failure, not a dead server.
  json::Value badjob = client.Rpc(
      "{\"cmd\":\"submit\",\"csv\":\"a,b\\n1,2,3,4,5\\n\"}");
  ASSERT_TRUE(badjob.Find("ok")->boolean);
  json::Value bad_done = client.Rpc(
      "{\"cmd\":\"result\",\"job\":" +
      std::to_string(static_cast<int64_t>(Number(badjob, "job"))) +
      ",\"timeout_ms\":60000}");
  EXPECT_FALSE(bad_done.Find("ok")->boolean);
  EXPECT_EQ(Text(bad_done, "state"), "failed");

  // Cancel an unknown job: ok rpc, cancelled=false.
  json::Value cancel = client.Rpc("{\"cmd\":\"cancel\",\"job\":99999}");
  ASSERT_TRUE(cancel.Find("ok")->boolean);
  EXPECT_FALSE(cancel.Find("cancelled")->boolean);

  // Numbers that are negative, fractional or beyond the field's range are
  // rejected before any integer cast. 2^53+2 is a seed JSON cannot carry
  // exactly.
  const std::string submit =
      "{\"cmd\":\"submit\",\"csv\":\"" + Escape(kCsv) + "\",";
  const std::vector<std::string> rejected = {
      submit + "\"seed\":-1}",
      submit + "\"seed\":1.5}",
      submit + "\"seed\":9007199254740994}",
      submit + "\"priority\":1.5}",
      submit + "\"priority\":3000000000}",
      submit + "\"deadline_ms\":-1}",
      "{\"cmd\":\"status\",\"job\":-1}",
      "{\"cmd\":\"cancel\",\"job\":1.5}",
      "{\"cmd\":\"result\",\"job\":9007199254740994}",
      "{\"cmd\":\"result\",\"job\":1,\"timeout_ms\":0.5}",
  };
  for (const std::string& request : rejected) {
    json::Value response = client.Rpc(request);
    EXPECT_FALSE(response.Find("ok")->boolean) << request;
    EXPECT_EQ(Text(response, "code"), "InvalidArgument") << request;
  }
  // A number that overflows a double (1e400) is refused by the JSON
  // parser itself, so the frame never reaches a field check.
  const std::vector<std::string> overflowing = {
      submit + "\"seed\":1e400}",
      submit + "\"priority\":1e400}",
      submit + "\"deadline_ms\":1e400}",
      "{\"cmd\":\"status\",\"job\":1e400}",
      "{\"cmd\":\"result\",\"job\":1,\"timeout_ms\":1e400}",
  };
  for (const std::string& request : overflowing) {
    json::Value response = client.Rpc(request);
    EXPECT_FALSE(response.Find("ok")->boolean) << request;
    EXPECT_EQ(Text(response, "code"), "ParseError") << request;
  }
  // The largest exact seed is still accepted.
  json::Value max_seed = client.Rpc(submit + "\"seed\":9007199254740992}");
  EXPECT_TRUE(max_seed.Find("ok")->boolean) << json::Dump(max_seed);

  // A frame nested far past the parser's depth limit is an error frame,
  // not a stack overflow, and the server keeps serving.
  json::Value deep = client.Rpc(std::string(200000, '['));
  EXPECT_FALSE(deep.Find("ok")->boolean);
  EXPECT_EQ(Text(deep, "code"), "ParseError");
  Client fresh(server_->port());
  json::Value after = fresh.Rpc(submit + "\"seed\":3}");
  ASSERT_TRUE(after.Find("ok")->boolean) << json::Dump(after);
  json::Value after_done = fresh.Rpc(
      "{\"cmd\":\"result\",\"job\":" +
      std::to_string(static_cast<int64_t>(Number(after, "job"))) +
      ",\"timeout_ms\":60000}");
  EXPECT_TRUE(after_done.Find("ok")->boolean) << json::Dump(after_done);
}

TEST_F(ServeE2eTest, ProtocolShutdownDrainsAndRejectsLateSubmits) {
  Client client(server_->port());
  json::Value submitted = client.Rpc(
      "{\"cmd\":\"submit\",\"csv\":\"" + Escape(kCsv) + "\"}");
  ASSERT_TRUE(submitted.Find("ok")->boolean);

  json::Value drained = client.Rpc("{\"cmd\":\"shutdown\"}");
  ASSERT_TRUE(drained.Find("ok")->boolean) << json::Dump(drained);
  // The in-flight job finished before the reply.
  EXPECT_GE(Number(drained, "jobs_completed"), 1);
  EXPECT_TRUE(server_->draining());
}

}  // namespace
}  // namespace serve
}  // namespace muds
