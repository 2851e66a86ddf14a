#include "src/replication/follower.h"

#include <arpa/inet.h>
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
using storage::LogPosition;

/// Decoded records per ApplyReplicated call while the socket stays
/// readable: large enough to amortize the snapshot republish across a
/// catch-up burst, small enough that position (and thus acks) advance
/// promptly.
constexpr size_t kMaxApplyBatch = 256;

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string MirrorPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "mirror.wal").string();
}

/// Mirror-log record payload: the primary's record wrapped with the
/// position *after* it, so recovery knows exactly where to resume.
///
///   varint epoch | varint end_offset | string payload
void EncodeMirrorRecord(LogPosition end, std::string_view payload,
                        Encoder& enc) {
  enc.PutVarint(end.epoch);
  enc.PutVarint(end.offset);
  enc.PutString(payload);
}

struct MirrorRecord {
  LogPosition end;
  std::string payload;
};

Result<MirrorRecord> DecodeMirrorRecord(std::string_view bytes) {
  Decoder dec(bytes);
  MirrorRecord rec;
  rec.end.epoch = dec.Varint();
  rec.end.offset = dec.Varint();
  rec.payload = dec.String();
  if (!dec.ok()) return dec.status();
  if (!dec.AtEnd()) {
    return Status::IOError("trailing bytes after mirror record");
  }
  return rec;
}

/// Drops state-edit ops whose target rule is unknown locally and was not
/// added earlier — in the same record, or by any record still sitting in
/// the current unapplied batch (`pending_added`): the batch is applied
/// as one span, so a rule added three records ago is not in the
/// repository yet when this record is pruned. A tenant-scoped follower
/// that re-subscribed with a narrower filter can legitimately receive a
/// shared-tenant record touching rules it never saw; pruning keeps the
/// subscribed state converging instead of aborting replication. Audit
/// entries stay 1:1 with the surviving ops.
void PruneUnknownOps(const rules::RuleRepository& repo,
                     rules::CommitRecord& record,
                     std::vector<rules::RuleId>& pending_added) {
  std::vector<rules::CommitRecord::Op> ops;
  std::vector<rules::AuditEntry> entries;
  for (size_t i = 0; i < record.ops.size(); ++i) {
    rules::CommitRecord::Op& op = record.ops[i];
    bool keep = true;
    switch (op.kind) {
      case rules::CommitRecord::OpKind::kAdd:
        if (op.rule.has_value()) {
          pending_added.push_back(rules::RuleId(op.rule->id()));
        }
        break;
      case rules::CommitRecord::OpKind::kDisable:
      case rules::CommitRecord::OpKind::kEnable:
      case rules::CommitRecord::OpKind::kRetire:
      case rules::CommitRecord::OpKind::kSetConfidence:
        keep = repo.rules().Find(op.id.view()) != nullptr ||
               std::find(pending_added.begin(), pending_added.end(), op.id) !=
                   pending_added.end();
        break;
      case rules::CommitRecord::OpKind::kCheckpoint:
      case rules::CommitRecord::OpKind::kRestoreCheckpoint:
        break;
    }
    if (keep) {
      ops.push_back(std::move(op));
      entries.push_back(std::move(record.entries[i]));
    }
  }
  record.ops = std::move(ops);
  record.entries = std::move(entries);
}

}  // namespace

ReplicaFollower::ReplicaFollower(FollowerConfig config)
    : config_(std::move(config)) {
  position_.epoch = 0;
  position_.offset = storage::wal_format::kHeaderBytes;
}

Result<std::unique_ptr<ReplicaFollower>> ReplicaFollower::Open(
    FollowerConfig config) {
  if (!config.pipeline.storage_dir.empty()) {
    return Status::InvalidArgument(
        "a follower pipeline must not have its own storage_dir — the "
        "mirror log is the follower's durability (set "
        "FollowerConfig::mirror_dir)");
  }
  auto follower = std::unique_ptr<ReplicaFollower>(
      new ReplicaFollower(std::move(config)));
  follower->pipeline_ =
      std::make_unique<chimera::ChimeraPipeline>(follower->config_.pipeline);
  RULEKIT_RETURN_IF_ERROR(follower->RecoverMirror());
  return follower;
}

ReplicaFollower::~ReplicaFollower() {
  Stop();
  mirror_.Close();  // flushes the interval tail
}

Status ReplicaFollower::RecoverMirror() {
  if (config_.mirror_dir.empty()) return Status::OK();
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config_.mirror_dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("create %s: %s",
                                     config_.mirror_dir.c_str(),
                                     ec.message().c_str()));
  }
  const std::string path = MirrorPath(config_.mirror_dir);
  if (fs::exists(path, ec)) {
    // Replay the mirror into the pipeline. A torn tail (crash mid-append)
    // is truncated and simply re-fetched from the primary on resume.
    std::vector<rules::CommitRecord> batch;
    std::vector<rules::RuleId> pending_added;
    LogPosition end = position_;
    Status st = storage::WriteAheadLog::Replay(
        path,
        [&](std::string_view bytes) -> Status {
          auto mirror = DecodeMirrorRecord(bytes);
          if (!mirror.ok()) return mirror.status();
          // A record re-shipped after a mid-batch disconnect can land in
          // the mirror twice (it is mirrored before it is applied, and
          // an unapplied batch is re-fetched on reconnect). Positions
          // are monotone, so a non-advancing end is a duplicate: skip.
          if (!(end < mirror->end)) return Status::OK();
          Decoder dec(mirror->payload);
          auto record = storage::DecodeCommitRecord(
              dec, config_.pipeline.storage.dictionaries);
          if (!record.ok()) return record.status();
          // The mirror stores the raw wire payload; re-apply the same
          // unknown-op pruning the streaming path did.
          PruneUnknownOps(pipeline_->repository(), *record, pending_added);
          batch.push_back(std::move(*record));
          end = mirror->end;
          if (batch.size() >= kMaxApplyBatch) {
            RULEKIT_RETURN_IF_ERROR(pipeline_->ApplyReplicated(batch));
            batch.clear();
            pending_added.clear();
          }
          return Status::OK();
        },
        /*stats=*/nullptr, /*truncate_torn_tail=*/true);
    RULEKIT_RETURN_IF_ERROR(st);
    if (!batch.empty()) {
      RULEKIT_RETURN_IF_ERROR(pipeline_->ApplyReplicated(batch));
    }
    std::lock_guard<std::mutex> lock(position_mu_);
    position_ = end;
  }
  auto wal = storage::WriteAheadLog::Open(path, storage::FsyncPolicy::kInterval,
                                          config_.mirror_sync_interval);
  if (!wal.ok()) return wal.status();
  mirror_ = std::move(*wal);
  return Status::OK();
}

void ReplicaFollower::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ReplicationLoop(); });
}

void ReplicaFollower::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  int fd = session_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  position_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

LogPosition ReplicaFollower::position() const {
  std::lock_guard<std::mutex> lock(position_mu_);
  return position_;
}

FollowerStats ReplicaFollower::stats() const {
  FollowerStats stats;
  stats.connected = connected_.load(std::memory_order_acquire);
  stats.records_applied = records_applied_.load(std::memory_order_relaxed);
  stats.records_mirrored = records_mirrored_.load(std::memory_order_relaxed);
  stats.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  stats.crc_mismatches = crc_mismatches_.load(std::memory_order_relaxed);
  stats.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  stats.connects = connects_.load(std::memory_order_relaxed);
  stats.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  stats.last_lag_ms =
      static_cast<double>(last_lag_ms_x1000_.load(std::memory_order_relaxed)) /
      1000.0;
  std::lock_guard<std::mutex> lock(position_mu_);
  stats.position = position_;
  stats.halt_error = halt_error_;
  return stats;
}

bool ReplicaFollower::WaitForPosition(LogPosition target,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(position_mu_);
  return position_cv_.wait_for(lock, timeout, [&] {
    return target <= position_ || !halt_error_.empty();
  }) && target <= position_;
}

void ReplicaFollower::AdvancePosition(LogPosition end) {
  {
    std::lock_guard<std::mutex> lock(position_mu_);
    if (position_ < end) position_ = end;
  }
  position_cv_.notify_all();
}

Status ReplicaFollower::ApplyBatch(std::vector<rules::CommitRecord>& batch,
                                   LogPosition end, uint64_t ship_unix_ms) {
  if (!batch.empty()) {
    RULEKIT_RETURN_IF_ERROR(pipeline_->ApplyReplicated(batch));
    records_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
    batches_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t now = NowUnixMs();
  double lag_ms =
      ship_unix_ms != 0 && now > ship_unix_ms
          ? static_cast<double>(now - ship_unix_ms)
          : 0.0;  // clocks are the same host's; guard skew anyway
  last_lag_ms_x1000_.store(static_cast<uint64_t>(lag_ms * 1000.0),
                           std::memory_order_relaxed);
  if (config_.monitor != nullptr) {
    chimera::ReplicationActivity activity;
    activity.records_applied = batch.size();
    activity.records_pending = 0;
    activity.lag_ms = lag_ms;
    activity.epoch = end.epoch;
    activity.offset = end.offset;
    config_.monitor->RecordReplication(activity);
  }
  batch.clear();
  AdvancePosition(end);
  return Status::OK();
}

void ReplicaFollower::ReplicationLoop() {
  auto backoff = config_.reconnect_backoff;
  while (!stopping_.load(std::memory_order_acquire)) {
    uint64_t connects_before = connects_.load(std::memory_order_relaxed);
    RunSession();
    {
      std::lock_guard<std::mutex> lock(position_mu_);
      if (!halt_error_.empty()) break;  // poison record: do not loop
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    // A session that subscribed successfully resets the backoff.
    if (connects_.load(std::memory_order_relaxed) != connects_before) {
      backoff = config_.reconnect_backoff;
    }
    std::unique_lock<std::mutex> lock(position_mu_);
    position_cv_.wait_for(lock, backoff, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    backoff = std::min(backoff * 2, config_.max_reconnect_backoff);
  }
  connected_.store(false, std::memory_order_release);
}

void ReplicaFollower::RunSession() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.primary_port);
  if (::inet_pton(AF_INET, config_.primary_host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  serving::SetNoDelay(fd);
  session_fd_.store(fd, std::memory_order_release);

  auto teardown = [&] {
    session_fd_.store(-1, std::memory_order_release);
    connected_.store(false, std::memory_order_release);
    ::close(fd);
  };

  ReplicaSubscribe sub;
  sub.position = position();
  sub.tenants = config_.tenants;
  Encoder enc;
  EncodeSubscribe(sub, enc);
  if (!serving::WriteFrame(fd, FrameType::kReplicaSubscribe, enc.data())
           .ok()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    teardown();
    return;
  }
  auto ack_frame = serving::ReadFrame(fd);
  if (!ack_frame.ok() ||
      ack_frame->type != FrameType::kReplicaSubscribeAck) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    teardown();
    return;
  }
  auto ack = DecodeSubscribeAck(ack_frame->payload);
  if (!ack.ok() || ack->code != serving::WireCode::kOk) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    teardown();
    return;
  }
  AdvancePosition(ack->position);  // offset normalization on a zero resume
  connects_.fetch_add(1, std::memory_order_relaxed);
  connected_.store(true, std::memory_order_release);

  std::vector<rules::CommitRecord> batch;
  std::vector<rules::RuleId> pending_added;  // adds in the unapplied batch
  LogPosition batch_end = position();
  uint64_t batch_ship_ms = 0;
  size_t applied_since_ack = 0;

  auto send_ack = [&]() -> bool {
    ReplicaAck out;
    out.position = position();
    Encoder ack_enc;
    EncodeAck(out, ack_enc);
    applied_since_ack = 0;
    return serving::WriteFrame(fd, FrameType::kReplicaAck, ack_enc.data())
        .ok();
  };
  auto halt = [&](const Status& error) {
    std::lock_guard<std::mutex> lock(position_mu_);
    halt_error_ = error.message();
    position_cv_.notify_all();
  };
  auto socket_readable = [&]() -> bool {
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, 0) == 1 && (pfd.revents & POLLIN) != 0;
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    auto frame = serving::ReadFrame(fd);
    if (!frame.ok()) break;  // connection dropped; resume from position()
    if (frame->type == FrameType::kReplicaRecord) {
      auto record = DecodeRecord(frame->payload);
      if (!record.ok()) break;
      // End-to-end re-verify: the CRC the primary stored must match the
      // bytes that arrived. A mismatch is a torn/corrupted frame — drop
      // the connection and resume from the last good position.
      if (Crc32(record->payload) != record->crc) {
        crc_mismatches_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (mirror_.is_open()) {
        Encoder mirror_enc;
        EncodeMirrorRecord(record->end, record->payload, mirror_enc);
        // A mirror append failure is not fatal to serving: the follower
        // keeps applying in memory and will re-stream on restart.
        if (mirror_.Append(mirror_enc.data()).ok()) {
          records_mirrored_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      Decoder dec(record->payload);
      auto commit = storage::DecodeCommitRecord(
          dec, config_.pipeline.storage.dictionaries);
      if (!commit.ok()) {
        halt(commit.status());
        break;
      }
      PruneUnknownOps(pipeline_->repository(), *commit, pending_added);
      batch.push_back(std::move(*commit));
      batch_end = record->end;
      batch_ship_ms = record->ship_unix_ms;
      ++applied_since_ack;
      // Keep draining while the primary is bursting; apply once the
      // socket goes quiet or the batch is full.
      if (batch.size() < kMaxApplyBatch && socket_readable()) continue;
      Status st = ApplyBatch(batch, batch_end, batch_ship_ms);
      if (!st.ok()) {
        halt(st);
        break;
      }
      pending_added.clear();
      if (applied_since_ack >= config_.ack_every || !socket_readable()) {
        if (!send_ack()) break;
      }
    } else if (frame->type == FrameType::kReplicaHeartbeat) {
      auto hb = DecodeHeartbeat(frame->payload);
      if (!hb.ok()) break;
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
      // Flush anything batched, then advance past the filtered/idle gap.
      Status st = ApplyBatch(batch, hb->end, hb->ship_unix_ms);
      if (!st.ok()) {
        halt(st);
        break;
      }
      pending_added.clear();
      if (!send_ack()) break;
    } else {
      break;  // protocol violation: reconnect cleanly
    }
  }
  // Best effort: the interval-mode mirror tail is synced on disconnect
  // so a follower crash right after loses at most the in-flight batch.
  if (mirror_.is_open()) (void)mirror_.Sync();
  teardown();
}

}  // namespace rulekit::replication
