#include "src/replication/shipper.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/common/string_util.h"
#include "src/replication/protocol.h"
#include "src/serving/wire.h"
#include "src/storage/codec.h"

namespace rulekit::replication {

namespace {

using serving::FrameType;
using serving::WireCode;
using storage::LogPosition;

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// True when a record tagged `tenant` belongs on a subscription to
/// `tenants`. Default-tenant ("") records ship to everyone: shared rules
/// serve every tenant's view.
bool Subscribed(const std::vector<std::string>& tenants,
                std::string_view tenant) {
  if (tenants.empty() || tenant.empty()) return true;
  return std::find(tenants.begin(), tenants.end(), tenant) != tenants.end();
}

}  // namespace

LogShipper::LogShipper(const storage::DurableRuleStore& store,
                       ShipperConfig config)
    : store_(store), config_(config) {}

LogShipper::~LogShipper() { Stop(); }

Status LogShipper::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
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
    Status st = Status::IOError(StrFormat("bind 127.0.0.1:%u: %s",
                                          config_.port, std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) < 0) {
    Status st = Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
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
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LogShipper::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    ::shutdown(s->fd, SHUT_RDWR);
  }
  for (auto& s : sessions) {
    if (s->thread.joinable()) s->thread.join();
    ::close(s->fd);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void LogShipper::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    serving::SetNoDelay(fd);
    ReapFinishedSessions();
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (stopping_.load(std::memory_order_acquire) ||
        sessions_.size() >= config_.max_followers) {
      subscriptions_refused_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    auto session = std::make_shared<Session>();
    session->id = ++next_session_id_;
    session->fd = fd;
    session->thread =
        std::thread([this, session] { ServeFollower(session); });
    sessions_.push_back(session);
  }
}

void LogShipper::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    bool done;
    {
      std::lock_guard<std::mutex> slock((*it)->mu);
      done = (*it)->done;
    }
    if (done) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<LogPosition> LogShipper::Handshake(Session& session) {
  auto frame = serving::ReadFrame(session.fd);
  if (!frame.ok()) return frame.status();
  if (frame->type != FrameType::kReplicaSubscribe) {
    return Status::InvalidArgument("expected a ReplicaSubscribe frame");
  }
  auto sub = DecodeSubscribe(frame->payload);
  auto refuse = [&](WireCode code, const std::string& message) -> Status {
    ReplicaSubscribeAck ack;
    ack.code = code;
    ack.message = message;
    Encoder enc;
    EncodeSubscribeAck(ack, enc);
    (void)serving::WriteFrame(session.fd, FrameType::kReplicaSubscribeAck,
                              enc.data());
    subscriptions_refused_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(message);
  };
  if (!sub.ok()) {
    return refuse(WireCode::kInvalidArgument, sub.status().message());
  }
  if (sub->protocol_version != kProtocolVersion) {
    return refuse(WireCode::kInvalidArgument,
                  StrFormat("unsupported replication protocol version %u",
                            sub->protocol_version));
  }
  LogPosition start = sub->position;
  if (start.offset < storage::wal_format::kHeaderBytes) {
    start.offset = storage::wal_format::kHeaderBytes;
  }
  LogPosition end = store_.position();
  if (end < start) {
    return refuse(WireCode::kInvalidArgument,
                  StrFormat("resume position (epoch %llu, offset %llu) is "
                            "beyond the primary's log end",
                            static_cast<unsigned long long>(start.epoch),
                            static_cast<unsigned long long>(start.offset)));
  }
  {
    // Retention check: the resume epoch's segment must still exist
    // (unless it is the live epoch, whose log always does).
    namespace fs = std::filesystem;
    std::error_code ec;
    if (start.epoch < end.epoch &&
        !fs::exists(fs::path(store_.dir()) /
                        ("wal-" + std::to_string(start.epoch)),
                    ec)) {
      return refuse(
          WireCode::kInvalidArgument,
          StrFormat("resume position epoch %llu was compacted away — "
                    "re-seed the follower and subscribe from zero",
                    static_cast<unsigned long long>(start.epoch)));
    }
  }
  {
    std::lock_guard<std::mutex> lock(session.mu);
    session.tenants = sub->tenants;
    session.shipped = start;
    session.acked = start;
  }
  ReplicaSubscribeAck ack;
  ack.code = WireCode::kOk;
  ack.position = start;
  Encoder enc;
  EncodeSubscribeAck(ack, enc);
  RULEKIT_RETURN_IF_ERROR(
      serving::WriteFrame(session.fd, FrameType::kReplicaSubscribeAck,
                          enc.data()));
  return start;
}

Status LogShipper::DrainAcks(Session& session,
                             std::chrono::milliseconds wait) {
  for (;;) {
    pollfd pfd{session.fd, POLLIN, 0};
    int n = ::poll(&pfd, 1, static_cast<int>(wait.count()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("poll: %s", std::strerror(errno)));
    }
    if (n == 0) return Status::OK();  // nothing queued
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & POLLIN) == 0) {
      return Status::NotFound("follower connection closed");
    }
    auto frame = serving::ReadFrame(session.fd);
    if (!frame.ok()) return frame.status();
    if (frame->type != FrameType::kReplicaAck) {
      return Status::InvalidArgument(
          StrFormat("unexpected frame type %u from follower",
                    static_cast<unsigned>(frame->type)));
    }
    auto ack = DecodeAck(frame->payload);
    if (!ack.ok()) return ack.status();
    std::lock_guard<std::mutex> lock(session.mu);
    if (session.acked < ack->position) session.acked = ack->position;
    wait = std::chrono::milliseconds(0);  // drain the rest non-blocking
  }
}

void LogShipper::ServeFollower(const std::shared_ptr<Session>& session) {
  auto start = Handshake(*session);
  if (start.ok()) {
    storage::StoreLogCursor cursor(store_.dir(), *start);
    std::vector<std::string> tenants;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      tenants = session->tenants;
    }
    auto last_heartbeat = std::chrono::steady_clock::now();
    bool position_unannounced = false;  // filtered records advanced silently
    while (!stopping_.load(std::memory_order_acquire)) {
      auto next = cursor.Next();
      if (!next.ok()) break;  // compacted under us or damaged segment
      if (next->has_value()) {
        storage::LogRecord& rec = **next;
        auto tenant = storage::PeekCommitTenant(rec.payload);
        bool ship = !tenant.ok() || Subscribed(tenants, *tenant);
        // An unpeekable record is shipped, not dropped: the follower's
        // full decode gives the authoritative error.
        if (ship) {
          ReplicaRecord out;
          out.end = rec.end;
          out.ship_unix_ms = NowUnixMs();
          out.crc = rec.crc;
          out.payload = std::move(rec.payload);
          Encoder enc;
          EncodeRecord(out, enc);
          if (!serving::WriteFrame(session->fd, FrameType::kReplicaRecord,
                                   enc.data())
                   .ok()) {
            break;
          }
          records_shipped_.fetch_add(1, std::memory_order_relaxed);
          bytes_shipped_.fetch_add(out.payload.size(),
                                   std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(session->mu);
          session->shipped = rec.end;
          ++session->records_shipped;
        } else {
          records_filtered_.fetch_add(1, std::memory_order_relaxed);
          position_unannounced = true;
          std::lock_guard<std::mutex> lock(session->mu);
          session->shipped = rec.end;
          ++session->records_filtered;
        }
        // Opportunistic ack drain so a fast follower's acks don't pile
        // up behind a long shipping burst.
        if (!DrainAcks(*session, std::chrono::milliseconds(0)).ok()) break;
        continue;
      }
      // Caught up. Announce filtered-past positions and keep the lag
      // signal alive, then wait for more log (an arriving ack wakes us).
      auto now = std::chrono::steady_clock::now();
      if (position_unannounced ||
          now - last_heartbeat >= config_.heartbeat_interval) {
        ReplicaHeartbeat hb;
        {
          std::lock_guard<std::mutex> lock(session->mu);
          hb.end = session->shipped;
        }
        hb.ship_unix_ms = NowUnixMs();
        Encoder enc;
        EncodeHeartbeat(hb, enc);
        if (!serving::WriteFrame(session->fd, FrameType::kReplicaHeartbeat,
                                 enc.data())
                 .ok()) {
          break;
        }
        heartbeats_.fetch_add(1, std::memory_order_relaxed);
        position_unannounced = false;
        last_heartbeat = now;
      }
      Status st = DrainAcks(*session, config_.poll_interval);
      if (!st.ok()) break;
    }
  }
  ::shutdown(session->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(session->mu);
  session->done = true;
}

ShipperStats LogShipper::stats() const {
  ShipperStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.subscriptions_refused =
      subscriptions_refused_.load(std::memory_order_relaxed);
  stats.records_shipped = records_shipped_.load(std::memory_order_relaxed);
  stats.records_filtered = records_filtered_.load(std::memory_order_relaxed);
  stats.bytes_shipped = bytes_shipped_.load(std::memory_order_relaxed);
  stats.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& s : sessions_) {
    std::lock_guard<std::mutex> slock(s->mu);
    if (s->done) continue;
    ShipperFollowerInfo info;
    info.id = s->id;
    info.tenants = s->tenants;
    info.shipped = s->shipped;
    info.acked = s->acked;
    info.records_shipped = s->records_shipped;
    info.records_filtered = s->records_filtered;
    stats.followers.push_back(std::move(info));
  }
  return stats;
}

std::optional<LogPosition> LogShipper::min_acked() const {
  std::optional<LogPosition> min;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& s : sessions_) {
    std::lock_guard<std::mutex> slock(s->mu);
    if (s->done) continue;
    if (!min.has_value() || s->acked < *min) min = s->acked;
  }
  return min;
}

}  // namespace rulekit::replication
