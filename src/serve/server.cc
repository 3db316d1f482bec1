#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/report.h"

namespace muds {
namespace serve {

namespace {

// A corrupt length prefix must not stall the read loop on gigabytes.
constexpr uint32_t kMaxFrameBytes = 256u << 20;

// Blocking full-buffer read; false on EOF/error.
bool ReadExact(int fd, void* buffer, size_t n) {
  char* out = static_cast<char*>(buffer);
  while (n > 0) {
    const ssize_t got = ::recv(fd, out, n, 0);
    if (got > 0) {
      out += got;
      n -= static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && (errno == EINTR)) continue;
    return false;
  }
  return true;
}

// Reads one length-prefixed frame. Returns false on clean EOF, error, or
// an oversized length (the caller closes the connection either way).
bool ReadFrame(int fd, std::string* payload) {
  uint32_t length_be = 0;
  if (!ReadExact(fd, &length_be, sizeof(length_be))) return false;
  const uint32_t length = ntohl(length_be);
  if (length > kMaxFrameBytes) return false;
  payload->resize(length);
  return length == 0 || ReadExact(fd, payload->data(), length);
}

// Sends the length prefix and the payload in one sendmsg, so a response is
// one segment rather than a small one that Nagle's algorithm holds back
// until the peer's delayed ACK. Loops over partial writes.
bool WriteFrame(int fd, const std::string& payload) {
  const uint32_t length_be = htonl(static_cast<uint32_t>(payload.size()));
  iovec parts[2] = {
      {const_cast<uint32_t*>(&length_be), sizeof(length_be)},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  while (message.msg_iovlen > 0) {
    const ssize_t wrote = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    // Skip the fully written parts, then advance into the partial one.
    size_t left = static_cast<size_t>(wrote);
    while (message.msg_iovlen > 0 && left >= message.msg_iov->iov_len) {
      left -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<char*>(message.msg_iov->iov_base) + left;
      message.msg_iov->iov_len -= left;
    }
  }
  return true;
}

json::Value MakeString(std::string text) {
  json::Value value;
  value.type = json::Value::Type::kString;
  value.string = std::move(text);
  return value;
}

json::Value MakeNumber(double number) {
  json::Value value;
  value.type = json::Value::Type::kNumber;
  value.number = number;
  return value;
}

json::Value MakeBool(bool boolean) {
  json::Value value;
  value.type = json::Value::Type::kBool;
  value.boolean = boolean;
  return value;
}

json::Value MakeObject() {
  json::Value value;
  value.type = json::Value::Type::kObject;
  return value;
}

std::string ErrorResponse(const Status& status) {
  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(false);
  response.object["code"] = MakeString(StatusCodeName(status.code()));
  response.object["error"] = MakeString(status.message());
  return json::Dump(response);
}

// JSON numbers arrive as doubles: integers above 2^53 are already rounded,
// so ids and seeds are capped there.
constexpr int64_t kMaxExactInteger = int64_t{1} << 53;
// Millisecond fields become nanosecond waits; 2^40 ms (about 35 years)
// keeps that conversion in range.
constexpr int64_t kMaxMillis = int64_t{1} << 40;

// Reads `value` (request field `name`) as an integer in [min, max]. Casting
// a non-finite or out-of-range double to an integer is undefined
// behaviour, so anything but a finite integral value in range is an
// InvalidArgument. `min` and `max` must be exact doubles.
Result<int64_t> IntegerField(const json::Value& value, const char* name,
                             int64_t min, int64_t max) {
  const double number = value.number;
  if (!value.IsNumber() || !std::isfinite(number) ||
      number != std::floor(number) || number < static_cast<double>(min) ||
      number > static_cast<double>(max)) {
    return Status::InvalidArgument(
        "\"" + std::string(name) + "\" must be an integer in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return static_cast<int64_t>(number);
}

// The "job" field of a status/result/cancel request.
Result<JobId> JobField(const json::Value& request, const char* cmd) {
  const json::Value* job = request.Find("job");
  if (job == nullptr) {
    return Status::InvalidArgument(std::string(cmd) +
                                   " needs a numeric \"job\"");
  }
  return IntegerField(*job, "job", 0, kMaxExactInteger);
}

// Embeds `raw_json` (a known-valid document we serialized ourselves) as
// the value of `key` without reparsing: responses stay one string build.
std::string WithRawField(std::string response, const std::string& key,
                         const std::string& raw_json) {
  // response is a Dump()ed object, so it ends with '}'.
  response.pop_back();
  if (response.back() != '{') response += ',';
  response += json::Quote(key);
  response += ':';
  std::string trimmed = raw_json;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == ' ')) {
    trimmed.pop_back();
  }
  response += trimmed;
  response += '}';
  return response;
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

// Every registered serve.* metric, sorted by name: the scheduler's and the
// catalog's one tally.
MetricsSnapshot ServeMetrics() {
  MetricsSnapshot serve;
  for (auto& entry : MetricsRegistry::Global().Snapshot()) {
    if (entry.first.rfind("serve.", 0) == 0) serve.push_back(std::move(entry));
  }
  return serve;
}

void LogLine(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::fputs("muds_serve: ", stderr);
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  va_end(args);
}

}  // namespace

Server::Server(const Options& options)
    : options_(options), catalog_(options.catalog_entries) {
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  JobScheduler::Options scheduler_options;
  scheduler_options.max_queued = options_.max_jobs;
  scheduler_options.job_budget_bytes = options_.job_budget_bytes;
  scheduler_ = std::make_unique<JobScheduler>(pool_.get(),
                                              scheduler_options);
}

Server::~Server() {
  Shutdown();
  Wait();
}

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IoError(
        "bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  LogLine("listening on 127.0.0.1:%d (threads=%d, max-jobs=%zu, "
          "job-budget=%zu bytes, catalog=%zu entries)",
          port_, pool_->NumThreads(), options_.max_jobs,
          options_.job_budget_bytes, options_.catalog_entries);
  return Status::Ok();
}

void Server::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stop_accepting_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  std::string request;
  bool shutdown_requested = false;
  while (!shutdown_requested && ReadFrame(fd, &request)) {
    const std::string response = HandleRequest(request, &shutdown_requested);
    if (!WriteFrame(fd, response)) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  if (shutdown_requested) {
    // Reply already flushed; tear the whole server down. Runs on this
    // connection's thread; Shutdown() never joins the calling thread.
    Shutdown();
  }
}

std::string Server::HandleRequest(const std::string& request_text,
                                  bool* shutdown_requested) {
  Result<json::Value> parsed = json::Parse(request_text);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const json::Value& request = parsed.value();
  const json::Value* cmd = request.Find("cmd");
  if (cmd == nullptr || !cmd->IsString()) {
    return ErrorResponse(
        Status::InvalidArgument("request has no string \"cmd\""));
  }
  if (cmd->string == "submit") return HandleSubmit(request);
  if (cmd->string == "status") return HandleStatus(request);
  if (cmd->string == "result") return HandleResult(request);
  if (cmd->string == "cancel") return HandleCancel(request);
  if (cmd->string == "stats") return HandleStats();
  if (cmd->string == "shutdown") {
    LogLine("shutdown requested; draining");
    draining_.store(true, std::memory_order_release);
    scheduler_->BeginShutdown();
    scheduler_->Drain();
    *shutdown_requested = true;
    json::Value response = MakeObject();
    response.object["ok"] = MakeBool(true);
    response.object["jobs_completed"] = MakeNumber(
        static_cast<double>(CounterValue("serve.jobs_completed")));
    return json::Dump(response);
  }
  return ErrorResponse(
      Status::InvalidArgument("unknown cmd: " + cmd->string));
}

std::string Server::HandleSubmit(const json::Value& request) {
  if (draining_.load(std::memory_order_acquire)) {
    return ErrorResponse(Status::Unavailable("server is shutting down"));
  }
  const json::Value* csv = request.Find("csv");
  if (csv == nullptr || !csv->IsString()) {
    return ErrorResponse(
        Status::InvalidArgument("submit needs a string \"csv\""));
  }
  auto csv_text = std::make_shared<std::string>(csv->string);
  auto appends = std::make_shared<std::vector<std::string>>();
  if (const json::Value* batches = request.Find("appends")) {
    if (!batches->IsArray()) {
      return ErrorResponse(
          Status::InvalidArgument("\"appends\" must be an array of strings"));
    }
    for (const json::Value& batch : batches->array) {
      if (!batch.IsString()) {
        return ErrorResponse(Status::InvalidArgument(
            "\"appends\" must be an array of strings"));
      }
      appends->push_back(batch.string);
    }
  }

  ProfileOptions profile = options_.profile;
  if (const json::Value* algorithm = request.Find("algorithm")) {
    if (!algorithm->IsString()) {
      return ErrorResponse(
          Status::InvalidArgument("\"algorithm\" must be a string"));
    }
    if (algorithm->string == "muds") {
      profile.algorithm = Algorithm::kMuds;
    } else if (algorithm->string == "hfun") {
      profile.algorithm = Algorithm::kHolisticFun;
    } else if (algorithm->string == "baseline") {
      profile.algorithm = Algorithm::kBaseline;
    } else if (algorithm->string == "auto") {
      profile.algorithm = Algorithm::kAuto;
    } else {
      return ErrorResponse(Status::InvalidArgument(
          "unknown algorithm: " + algorithm->string));
    }
  }
  if (const json::Value* seed = request.Find("seed")) {
    const Result<int64_t> parsed =
        IntegerField(*seed, "seed", 0, kMaxExactInteger);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    profile.seed = static_cast<uint64_t>(parsed.value());
  }
  // Engine threads come from the server pool, not per request: the pool
  // is the shared substrate, and a per-job thread count would let one
  // client oversubscribe it. Each job is a one-thread run within its pump
  // task (parse, dedup and engine inline); concurrency comes from many
  // jobs in flight.
  profile.num_threads = 1;

  JobConfig config;
  if (const json::Value* priority = request.Find("priority")) {
    const Result<int64_t> parsed =
        IntegerField(*priority, "priority", std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max());
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    config.priority = static_cast<int>(parsed.value());
  }
  if (const json::Value* deadline = request.Find("deadline_ms")) {
    const Result<int64_t> parsed =
        IntegerField(*deadline, "deadline_ms", 0, kMaxMillis);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    config.deadline_ms = parsed.value();
  }

  auto record = std::make_shared<JobRecord>();
  Result<JobId> submitted = scheduler_->Submit(
      [this, csv_text, appends, profile, record](JobContext& context) {
        return RunProfileJob(context, csv_text, appends, profile, record);
      },
      config);
  if (!submitted.ok()) {
    LogLine("submit rejected: %s", submitted.status().ToString().c_str());
    return ErrorResponse(submitted.status());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.emplace(submitted.value(), record);
  }
  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(true);
  response.object["job"] =
      MakeNumber(static_cast<double>(submitted.value()));
  const std::optional<JobScheduler::JobInfo> info =
      scheduler_->GetInfo(submitted.value());
  response.object["state"] = MakeString(
      JobStateName(info.has_value() ? info->state : JobState::kQueued));
  return json::Dump(response);
}

Status Server::RunProfileJob(JobContext& context,
                             std::shared_ptr<std::string> csv,
                             std::shared_ptr<std::vector<std::string>> appends,
                             ProfileOptions options,
                             std::shared_ptr<JobRecord> record) {
  // Per-job PLI byte budget: clamp the engine's cache budget against the
  // server-wide per-job cap (0 = unlimited on both sides).
  const size_t cap = context.pli_budget_bytes();
  if (cap != 0 &&
      (options.pli_budget_bytes == 0 || options.pli_budget_bytes > cap)) {
    options.pli_budget_bytes = cap;
  }

  if (Status alive = context.CheckAlive(); !alive.ok()) return alive;

  const std::string key = ResultCatalog::KeyFor(*csv, *appends, options);
  if (std::shared_ptr<const ResultCatalog::Value> hit =
          catalog_.FindOrBegin(key)) {
    std::lock_guard<std::mutex> lock(record->mutex);
    record->value = std::move(hit);
    record->catalog_hit = true;
    return Status::Ok();
  }

  // This job computes; every early exit must Abort so coalesced waiters
  // are not stranded.
  Status status = context.CheckAlive();
  Result<ProfilingResult> profiled = Status::Unavailable("not run");
  if (status.ok()) {
    MUDS_TRACE_SPAN("serveProfile",
                    "{\"job\":" + std::to_string(context.id()) + "}");
    // Append batches grow the parsed base before the one profile; plain
    // submissions profile the base alone. (Parsing happens inside — a
    // parse error is a job failure, not a server failure.)
    profiled = ProfileCsvStringWithAppends(*csv, *appends, options);
    if (profiled.ok()) status = context.CheckAlive();
  }
  if (!status.ok() || !profiled.ok()) {
    catalog_.Abort(key);
    return !status.ok() ? status : profiled.status();
  }

  auto value = std::make_shared<ResultCatalog::Value>();
  value->result = std::move(profiled).value();
  value->json = ProfilingResultToJson(value->result);
  catalog_.Publish(key, value);
  std::lock_guard<std::mutex> lock(record->mutex);
  record->value = std::move(value);
  return Status::Ok();
}

std::string Server::HandleStatus(const json::Value& request) {
  const Result<JobId> job = JobField(request, "status");
  if (!job.ok()) return ErrorResponse(job.status());
  const JobId id = job.value();
  const std::optional<JobScheduler::JobInfo> info = scheduler_->GetInfo(id);
  if (!info.has_value()) {
    return ErrorResponse(
        Status::NotFound("unknown job " + std::to_string(id)));
  }
  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(true);
  response.object["job"] = MakeNumber(static_cast<double>(id));
  response.object["state"] = MakeString(JobStateName(info->state));
  return json::Dump(response);
}

std::string Server::HandleResult(const json::Value& request) {
  const Result<JobId> job = JobField(request, "result");
  if (!job.ok()) return ErrorResponse(job.status());
  const JobId id = job.value();
  int64_t timeout_ms = -1;
  if (const json::Value* timeout = request.Find("timeout_ms")) {
    // Negative waits without a timeout.
    const Result<int64_t> parsed =
        IntegerField(*timeout, "timeout_ms", -kMaxMillis, kMaxMillis);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    timeout_ms = parsed.value();
  }
  std::shared_ptr<JobRecord> record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(id);
    if (it != records_.end()) record = it->second;
  }
  if (record == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown job " + std::to_string(id)));
  }
  if (!scheduler_->WaitTerminal(id, timeout_ms)) {
    return ErrorResponse(Status::DeadlineExceeded(
        "job " + std::to_string(id) + " not finished within timeout"));
  }
  const std::optional<JobScheduler::JobInfo> info = scheduler_->GetInfo(id);
  if (!info.has_value()) {
    return ErrorResponse(
        Status::NotFound("unknown job " + std::to_string(id)));
  }

  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(info->state == JobState::kDone);
  response.object["job"] = MakeNumber(static_cast<double>(id));
  response.object["state"] = MakeString(JobStateName(info->state));
  response.object["queue_wait_ns"] =
      MakeNumber(static_cast<double>(info->queue_wait_ns));
  response.object["serve"] = ServeCountersJson();
  std::string result_json;
  {
    std::lock_guard<std::mutex> lock(record->mutex);
    response.object["catalog_hit"] = MakeBool(record->catalog_hit);
    if (info->state == JobState::kDone && record->value != nullptr) {
      result_json = record->value->json;
    } else if (!info->status.ok()) {
      response.object["error"] = MakeString(info->status.ToString());
      response.object["code"] =
          MakeString(StatusCodeName(info->status.code()));
    }
  }
  std::string text = json::Dump(response);
  if (!result_json.empty()) {
    text = WithRawField(std::move(text), "result", result_json);
  }
  return text;
}

std::string Server::HandleCancel(const json::Value& request) {
  const Result<JobId> job = JobField(request, "cancel");
  if (!job.ok()) return ErrorResponse(job.status());
  const JobId id = job.value();
  const bool cancelled = scheduler_->Cancel(id);
  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(true);
  response.object["job"] = MakeNumber(static_cast<double>(id));
  response.object["cancelled"] = MakeBool(cancelled);
  return json::Dump(response);
}

json::Value Server::ServeCountersJson() const {
  json::Value serve = MakeObject();
  for (const auto& [name, value] : ServeMetrics()) {
    serve.object[name] = MakeNumber(static_cast<double>(value));
  }
  return serve;
}

std::string Server::HandleStats() {
  json::Value response = MakeObject();
  response.object["ok"] = MakeBool(true);
  response.object["draining"] =
      MakeBool(draining_.load(std::memory_order_acquire));
  response.object["serve"] = ServeCountersJson();

  json::Value scheduler_json = MakeObject();
  scheduler_json.object["queued"] =
      MakeNumber(static_cast<double>(scheduler_->NumQueued()));
  scheduler_json.object["running"] =
      MakeNumber(static_cast<double>(scheduler_->NumRunning()));
  response.object["scheduler"] = std::move(scheduler_json);

  json::Value catalog_json = MakeObject();
  catalog_json.object["entries"] =
      MakeNumber(static_cast<double>(catalog_.NumEntries()));
  response.object["catalog"] = std::move(catalog_json);
  return json::Dump(response);
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    draining_.store(true, std::memory_order_release);
    scheduler_->BeginShutdown();
    scheduler_->Drain();
    stop_accepting_.store(true, std::memory_order_release);
    // Unblock connection threads stuck in recv; the accept thread wakes
    // on its poll timeout. Joining happens in Wait().
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    // Flush the serving metrics so an operator tailing the log sees the
    // final counters even when no client asked for stats.
    for (const auto& [name, value] : ServeMetrics()) {
      LogLine("final %s = %lld", name.c_str(), static_cast<long long>(value));
    }
    LogLine("drained; shutting down");
  });
}

void Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connections may still be mid-request; join outside the lock to let
  // them finish (their final sends fail silently once peers are gone).
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace serve
}  // namespace muds
