#include "src/serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/rules/rule_parser.h"

namespace rulekit::serving {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

WireClassifyResponse ErrorResponse(uint64_t request_id, WireCode code,
                                   std::string message) {
  WireClassifyResponse response;
  response.request_id = request_id;
  response.code = code;
  response.message = std::move(message);
  return response;
}

}  // namespace

RuleServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

RuleServer::RuleServer(const chimera::ChimeraPipeline& pipeline,
                       ServerConfig config)
    : pipeline_(pipeline),
      config_(config),
      limiter_(config.rate_limit_per_sec, config.rate_limit_burst) {}

RuleServer::~RuleServer() { Stop(); }

Status RuleServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(
        StrFormat("bind 127.0.0.1:%u: %s", config_.port,
                  std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    Status st =
        Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status st =
        Status::IOError(StrFormat("getsockname: %s", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;

  stopping_.store(false, std::memory_order_release);
  drain_and_exit_ = false;
  readers_ = std::make_unique<ThreadPool>(
      config_.io_threads == 0 ? 1 : config_.io_threads);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void RuleServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. No new connections: shutting the listener down fails the blocked
  //    accept() and the acceptor exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();

  // 2. Unblock every reader: half-close the read side so blocked
  //    ReadFrame()s see EOF. The write side stays open — responses for
  //    already-admitted requests still go out.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : connections_) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  readers_.reset();  // drains reader tasks

  // 3. Drain: the dispatcher answers everything already admitted (no
  //    coalesce-window dawdling in drain mode), then exits.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    drain_and_exit_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    connections_.clear();  // last refs close the sockets
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void RuleServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatally broken): stop accepting
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    SetNoDelay(fd);
    auto conn = std::make_shared<Connection>(fd);
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      id = next_conn_id_++;
      connections_.emplace(id, conn);
    }
    readers_->Submit([this, id, conn] {
      ReadLoop(conn);
      std::lock_guard<std::mutex> lock(conns_mu_);
      connections_.erase(id);
    });
  }
}

bool RuleServer::Coalescable(const Pending& pending) const {
  return pending.request.items.size() == 1 &&
         !pending.request.no_coalesce && !pending.request.require_durable;
}

void RuleServer::ReadLoop(const std::shared_ptr<Connection>& conn) {
  while (conn->alive.load(std::memory_order_acquire)) {
    auto frame = ReadFrame(conn->fd);
    if (!frame.ok()) {
      // kNotFound = clean close between frames; anything else is a torn
      // frame or socket error. Either way this connection is done.
      conn->alive.store(false, std::memory_order_release);
      return;
    }
    if (frame->type == FrameType::kRuleEditRequest) {
      auto edit = DecodeEditRequestPayload(frame->payload);
      if (!edit.ok()) {
        invalid_requests_.fetch_add(1, std::memory_order_relaxed);
        WireRuleEditResponse response;
        response.code = WireCode::kInvalidArgument;
        response.message = edit.status().message();
        RespondEdit(*conn, response);
        continue;
      }
      HandleEdit(*conn, std::move(*edit));
      continue;
    }
    if (frame->type != FrameType::kClassifyRequest) {
      invalid_requests_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn, ErrorResponse(0, WireCode::kInvalidArgument,
                                   "expected a ClassifyRequest frame"));
      continue;
    }
    auto decoded = DecodeRequestPayload(frame->payload);
    if (!decoded.ok()) {
      // The frame boundary was intact (length prefix consumed exactly),
      // so the stream is not desynced — report and keep reading.
      invalid_requests_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn, ErrorResponse(0, WireCode::kInvalidArgument,
                                   decoded.status().message()));
      continue;
    }
    const Clock::time_point now = Clock::now();
    WireClassifyRequest request = std::move(*decoded);

    if (request.items.empty()) {
      invalid_requests_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn, ErrorResponse(request.request_id,
                                   WireCode::kInvalidArgument,
                                   "empty item batch"));
      continue;
    }
    if (request.items.size() > config_.max_items_per_request) {
      invalid_requests_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn,
              ErrorResponse(
                  request.request_id, WireCode::kInvalidArgument,
                  StrFormat("batch of %zu items exceeds the per-request "
                            "limit of %zu",
                            request.items.size(),
                            config_.max_items_per_request)));
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn, ErrorResponse(request.request_id, WireCode::kUnavailable,
                                   "server shutting down"));
      continue;
    }
    // Admission control, in policy order (see DESIGN.md): rate limit
    // first (a flooding client is refused before it can occupy queue
    // space), then the bounded queue, then deadline bookkeeping.
    if (!limiter_.Admit(request.tenant, now)) {
      rate_limit_rejects_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn,
              ErrorResponse(request.request_id, WireCode::kOverloaded,
                            StrFormat("client '%s' is over its rate limit",
                                      request.tenant.c_str())));
      continue;
    }

    Pending pending;
    pending.conn = conn;
    pending.admitted = now;
    if (request.deadline_ms > 0) {
      pending.deadline =
          now + std::chrono::milliseconds(request.deadline_ms);
    }
    pending.request = std::move(request);

    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() < config_.max_pending && !drain_and_exit_) {
        queue_.push_back(std::move(pending));
        enqueued = true;
      }
    }
    if (!enqueued) {
      queue_full_rejects_.fetch_add(1, std::memory_order_relaxed);
      Respond(*conn,
              ErrorResponse(pending.request.request_id,
                            WireCode::kOverloaded,
                            StrFormat("pending queue full (%zu requests)",
                                      config_.max_pending)));
      continue;
    }
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    queue_cv_.notify_one();
  }
}

void RuleServer::TakeCoalescable(const std::string& tenant,
                                 std::vector<Pending>& batch) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < config_.max_coalesce_batch;) {
    if (Coalescable(*it) && it->request.tenant == tenant) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void RuleServer::DispatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || drain_and_exit_; });
      if (queue_.empty()) return;  // drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();

      if (Coalescable(batch.front())) {
        // Merge the coalescable same-tenant requests already queued. Only
        // a nonzero coalesce_window then holds the batch open for later
        // arrivals, until it closes or the batch fills; drain mode skips
        // the wait. By value: push_back may reallocate `batch`.
        const std::string tenant = batch.front().request.tenant;
        const auto window_end = Clock::now() + config_.coalesce_window;
        for (;;) {
          TakeCoalescable(tenant, batch);
          if (batch.size() >= config_.max_coalesce_batch ||
              drain_and_exit_ || Clock::now() >= window_end) {
            break;
          }
          queue_cv_.wait_until(lock, window_end);
        }
      }
    }
    DispatchBatch(std::move(batch));
  }
}

void RuleServer::DispatchBatch(std::vector<Pending> batch) {
  const Clock::time_point dispatch_start = Clock::now();

  // Deadline shedding: a request whose deadline passed while it queued
  // is answered kDeadlineExceeded without costing pipeline time.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& pending : batch) {
    queue_wait_us_.Record(ElapsedUs(pending.admitted, dispatch_start));
    if (pending.deadline.has_value() && *pending.deadline <= dispatch_start) {
      deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
      RespondAdmitted(pending,
                      ErrorResponse(pending.request.request_id,
                                    WireCode::kDeadlineExceeded,
                                    "deadline expired in the queue"));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  std::vector<data::ProductItem> items;
  size_t total_items = 0;
  for (const auto& pending : live) total_items += pending.request.items.size();
  items.reserve(total_items);
  for (auto& pending : live) {
    for (auto& item : pending.request.items) items.push_back(std::move(item));
  }

  chimera::ClassifyRequest request;
  request.tenant = rules::TenantId(live.front().request.tenant);
  request.items = items;
  if (live.size() == 1) {
    // A lone dispatch keeps its own constraints end to end; a merged one
    // already had per-member deadlines checked above and only contains
    // members without durability demands (Coalescable()).
    request.options.require_durable = live.front().request.require_durable;
    request.deadline = live.front().deadline;
  }
  chimera::ClassifyResponse result = pipeline_.Classify(request);
  const Clock::time_point done = Clock::now();

  batches_dispatched_.fetch_add(1, std::memory_order_relaxed);
  batch_size_.Record(live.size());
  if (live.size() > 1) {
    coalesced_requests_.fetch_add(live.size(), std::memory_order_relaxed);
  }

  if (live.size() == 1) {
    RespondAdmitted(live.front(),
                    ResponseFrom(live.front().request.request_id, result));
  } else {
    // Fan the merged report back out: member i owns prediction slice
    // [offset, offset + its item count). Per-member counters reduce to
    // "classified or not" — full stage attribution exists only for the
    // merged batch (DESIGN.md documents the tradeoff).
    size_t offset = 0;
    for (const auto& pending : live) {
      const size_t count = pending.request.items.size();
      WireClassifyResponse response;
      response.request_id = pending.request.request_id;
      response.code = CodeFor(result.status);
      response.message = result.status.message();
      response.total = count;
      for (size_t i = 0; i < count; ++i) {
        const auto& prediction = result.report.predictions[offset + i];
        if (prediction.has_value()) ++response.classified;
        response.predictions.push_back(prediction);
      }
      offset += count;
      RespondAdmitted(pending, response);
    }
  }

  if (config_.monitor != nullptr) {
    const uint64_t overload = rate_limit_rejects_.load() +
                              queue_full_rejects_.load();
    const uint64_t sheds = deadline_sheds_.load();
    chimera::ServingActivity activity;
    activity.batch_index = batches_dispatched_.load() - 1;
    activity.requests = live.size();
    activity.batch_size = total_items;
    activity.overload_rejects = overload - reported_overload_;
    activity.deadline_sheds = sheds - reported_sheds_;
    activity.queue_wait_ms =
        static_cast<double>(
            ElapsedUs(live.front().admitted, dispatch_start)) /
        1000.0;
    activity.service_ms =
        static_cast<double>(ElapsedUs(dispatch_start, done)) / 1000.0;
    activity.rules_executed = result.report.rules_executed;
    activity.rule_items = result.report.rule_items;
    reported_overload_ = overload;
    reported_sheds_ = sheds;
    config_.monitor->RecordServing(activity, live.front().request.tenant);

    // Cache counters ride along under the same batch index, so a
    // network-served tenant's stale-drop-rate spike (a drifting feed
    // invalidating its memoized winners) is visible to the
    // DriftResponder exactly like an in-process stream's.
    chimera::CacheActivity cache;
    cache.batch_index = activity.batch_index;
    cache.lookups =
        result.report.cache_hits + result.report.cache_misses;
    cache.hits = result.report.cache_hits;
    cache.stale_drops = result.report.cache_stale_drops;
    cache.promotions = result.report.cache_promotions;
    cache.evictions = result.report.cache_evictions;
    if (cache.lookups > 0) {
      config_.monitor->RecordCache(cache, live.front().request.tenant);
    }
  }
}

void RuleServer::Respond(Connection& conn,
                         const WireClassifyResponse& response) {
  Encoder enc;
  EncodeResponsePayload(response, enc);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  Status st = WriteFrame(conn.fd, FrameType::kClassifyResponse, enc.data());
  if (!st.ok()) {
    // The peer is gone (or the pipe broke): fail the read loop too.
    conn.alive.store(false, std::memory_order_release);
    ::shutdown(conn.fd, SHUT_RDWR);
  }
}

void RuleServer::RespondEdit(Connection& conn,
                             const WireRuleEditResponse& response) {
  Encoder enc;
  EncodeEditResponsePayload(response, enc);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  Status st = WriteFrame(conn.fd, FrameType::kRuleEditResponse, enc.data());
  if (!st.ok()) {
    conn.alive.store(false, std::memory_order_release);
    ::shutdown(conn.fd, SHUT_RDWR);
  }
}

void RuleServer::HandleEdit(Connection& conn, WireRuleEditRequest request) {
  WireRuleEditResponse response;
  response.request_id = request.request_id;
  if (config_.writer == nullptr) {
    edits_refused_readonly_.fetch_add(1, std::memory_order_relaxed);
    response.code = WireCode::kReadOnly;
    response.message =
        "this server is a read-only replica; send rule edits to the primary";
    RespondEdit(conn, response);
    return;
  }
  chimera::ChimeraPipeline& writer = *config_.writer;
  const rules::TenantId tenant{request.tenant};
  Status status;
  uint64_t rules_added = 0;
  switch (request.op) {
    case EditOp::kAddRules: {
      auto parsed = rules::ParseRules(request.rule_dsl,
                                      writer.config().storage.dictionaries);
      if (!parsed.ok()) {
        status = parsed.status();
        break;
      }
      rules_added = parsed->size();
      status = writer.AddRules(std::move(*parsed), request.author, tenant);
      break;
    }
    case EditOp::kDisable:
      status = writer.Mutate(
          request.author,
          [&](rules::RuleTransaction& txn) {
            return txn.Disable(rules::RuleId(request.rule_id),
                               request.detail);
          },
          tenant);
      break;
    case EditOp::kEnable:
      status = writer.Mutate(
          request.author,
          [&](rules::RuleTransaction& txn) {
            return txn.Enable(rules::RuleId(request.rule_id));
          },
          tenant);
      break;
    case EditOp::kRetire:
      status = writer.Mutate(
          request.author,
          [&](rules::RuleTransaction& txn) {
            return txn.Retire(rules::RuleId(request.rule_id), request.detail);
          },
          tenant);
      break;
    case EditOp::kSetConfidence:
      status = writer.Mutate(
          request.author,
          [&](rules::RuleTransaction& txn) {
            return txn.SetConfidence(rules::RuleId(request.rule_id),
                                     request.confidence);
          },
          tenant);
      break;
  }
  if (status.ok()) {
    edits_applied_.fetch_add(1, std::memory_order_relaxed);
    response.rules_added = rules_added;
  } else {
    edit_failures_.fetch_add(1, std::memory_order_relaxed);
    response.code = CodeFor(status);
    response.message = status.message();
  }
  RespondEdit(conn, response);
}

void RuleServer::RespondAdmitted(const Pending& pending,
                                 const WireClassifyResponse& response) {
  Respond(*pending.conn, response);
  latency_us_.Record(ElapsedUs(pending.admitted, Clock::now()));
}

ServerStats RuleServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.requests_admitted = requests_admitted_.load();
  stats.invalid_requests = invalid_requests_.load();
  stats.rate_limit_rejects = rate_limit_rejects_.load();
  stats.queue_full_rejects = queue_full_rejects_.load();
  stats.deadline_sheds = deadline_sheds_.load();
  stats.unavailable_rejects = unavailable_rejects_.load();
  stats.batches_dispatched = batches_dispatched_.load();
  stats.coalesced_requests = coalesced_requests_.load();
  stats.edits_applied = edits_applied_.load();
  stats.edits_refused_readonly = edits_refused_readonly_.load();
  stats.edit_failures = edit_failures_.load();
  stats.latency_us = latency_us_.TakeSnapshot();
  stats.queue_wait_us = queue_wait_us_.TakeSnapshot();
  stats.batch_size = batch_size_.TakeSnapshot();
  return stats;
}

}  // namespace rulekit::serving
