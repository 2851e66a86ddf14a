#ifndef RULEKIT_SERVING_WIRE_H_
#define RULEKIT_SERVING_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chimera/request.h"
#include "src/common/binary_codec.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/data/product.h"

namespace rulekit::serving {

/// Wire protocol version 1 (see DESIGN.md "Serving front-end").
///
/// Every frame is
///
///   u32 LE payload length | u8 frame type | payload bytes
///
/// where the length covers the payload only (not itself, not the type
/// byte). Payload integers are little-endian; variable-length quantities
/// are LEB128 varints; strings are varint-length-prefixed bytes — the
/// exact conventions of the durable store's record formats, implemented
/// by the shared rulekit::Encoder/Decoder.

/// Frame type bytes. Pinned: these are the wire format — never renumber;
/// add new types at the end. Types 3+ arrived with the replication
/// subsystem (DESIGN.md §10): rule edits over the wire (so a primary's
/// server can accept writes and a follower's can refuse them with
/// kReadOnly), and the log-shipping stream frames (payload codecs in
/// src/replication/protocol.h).
enum class FrameType : uint8_t {
  kClassifyRequest = 1,
  kClassifyResponse = 2,
  kRuleEditRequest = 3,
  kRuleEditResponse = 4,
  kReplicaSubscribe = 5,     // follower -> primary: tenants + resume position
  kReplicaSubscribeAck = 6,  // primary -> follower: accepted / refused
  kReplicaRecord = 7,        // primary -> follower: one commit record
  kReplicaHeartbeat = 8,     // primary -> follower: position advance, no data
  kReplicaAck = 9,           // follower -> primary: applied-through position
};

/// The highest assigned frame type (transport-level validation bound).
inline constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kReplicaAck);

/// Response status codes on the wire. Pinned: clients in other languages
/// hard-code these values, so they must never be renumbered — add new
/// codes at the end.
enum class WireCode : uint8_t {
  kOk = 0,
  /// The frame decoded but the request is malformed (empty batch, item
  /// count over the server's limit, unknown flags).
  kInvalidArgument = 1,
  /// Admission control refused: the client is over its rate limit or the
  /// server's pending queue is full. Retry with backoff.
  kOverloaded = 2,
  /// The request's deadline passed before the pipeline ran (shed from
  /// the queue, or already expired on arrival).
  kDeadlineExceeded = 3,
  /// The server cannot serve at all right now: shutting down, or the
  /// request required durability while the journal is severed.
  kUnavailable = 4,
  /// Anything else — a pipeline-side failure the codes above don't
  /// describe.
  kInternal = 5,
  /// The server is a read-only replica: it serves Classify traffic but
  /// refuses every rule-edit frame. Write to the primary instead.
  kReadOnly = 6,
};

/// The highest assigned wire code (decode-side validation bound).
inline constexpr uint8_t kMaxWireCode = static_cast<uint8_t>(WireCode::kReadOnly);

/// The wire code a pipeline/server Status maps to. Stable: kOk for OK,
/// kResourceExhausted -> kOverloaded, kDeadlineExceeded and kUnavailable
/// to their namesakes, everything else -> kInternal.
WireCode CodeFor(const Status& status);

/// The in-process Status a wire code maps back to (message attached).
/// Round-trips with CodeFor for every pinned code.
Status StatusFor(WireCode code, const std::string& message);

/// ClassifyRequest frame flag bits (u8 on the wire; unknown bits fail
/// decoding so they can be assigned meaning later).
inline constexpr uint8_t kFlagNoCoalesce = 0x01;
inline constexpr uint8_t kFlagRequireDurable = 0x02;
inline constexpr uint8_t kKnownFlags = kFlagNoCoalesce | kFlagRequireDurable;

/// A decoded ClassifyRequest frame payload:
///
///   varint request_id | string tenant | varint deadline_ms (0 = none)
///   | u8 flags | varint item_count
///   | item_count x (string id | string title
///                   | varint attr_count | attr_count x (string, string))
///
/// `request_id` is an opaque client token echoed verbatim on the
/// response so one connection can have several requests in flight.
/// `deadline_ms` is a relative budget (the wire cannot carry an absolute
/// steady_clock point); the server anchors it at decode time.
struct WireClassifyRequest {
  uint64_t request_id = 0;
  std::string tenant;
  uint64_t deadline_ms = 0;  // 0 = no deadline
  bool no_coalesce = false;
  bool require_durable = false;
  std::vector<data::ProductItem> items;
};

/// A decoded ClassifyResponse frame payload:
///
///   varint request_id | u8 code | string message
///   | varint total | varint gate_classified | varint gate_rejected
///   | varint classified | varint filtered | varint suppressed
///   | varint declined | varint cache_hits
///   | varint prediction_count | prediction_count x (u8 has | string)
///
/// The report counters mirror chimera::BatchReport's classification
/// accounting. A coalesced single-item request gets per-request numbers:
/// total = 1 and its own prediction, with the coarse counters reduced to
/// that item's outcome (classified or not) — full stage attribution is
/// only meaningful for the whole merged batch (see DESIGN.md).
struct WireClassifyResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;
  uint64_t total = 0;
  uint64_t gate_classified = 0;
  uint64_t gate_rejected = 0;
  uint64_t classified = 0;
  uint64_t filtered = 0;
  uint64_t suppressed = 0;
  uint64_t declined = 0;
  uint64_t cache_hits = 0;
  std::vector<std::optional<std::string>> predictions;
};

/// Rule-edit operations a client can request over the wire. Pinned
/// byte values, append-only like the frame types.
enum class EditOp : uint8_t {
  kAddRules = 0,       // rule_dsl holds one or more rules in DSL text
  kDisable = 1,
  kEnable = 2,
  kRetire = 3,
  kSetConfidence = 4,
};

/// A decoded RuleEditRequest frame payload:
///
///   varint request_id | string tenant | string author | u8 op
///   | string rule_dsl (kAddRules; else empty)
///   | string rule_id (ops on an existing rule; else empty)
///   | double confidence (kSetConfidence; else 0)
///   | string detail (audit note)
///
/// The edit runs as one pipeline transaction scoped to `tenant`; the
/// server journals it ahead of publication like any local mutation, so a
/// wire edit ships to followers exactly like an in-process one.
struct WireRuleEditRequest {
  uint64_t request_id = 0;
  std::string tenant;
  std::string author;
  EditOp op = EditOp::kAddRules;
  std::string rule_dsl;
  std::string rule_id;
  double confidence = 0.0;
  std::string detail;
};

/// A decoded RuleEditResponse frame payload:
///
///   varint request_id | u8 code | string message | varint rules_added
struct WireRuleEditResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;
  uint64_t rules_added = 0;
};

/// Payload codecs (frame header excluded — the transport adds it).
void EncodeRequestPayload(const WireClassifyRequest& request, Encoder& enc);
Result<WireClassifyRequest> DecodeRequestPayload(std::string_view payload);
void EncodeResponsePayload(const WireClassifyResponse& response,
                           Encoder& enc);
Result<WireClassifyResponse> DecodeResponsePayload(std::string_view payload);
void EncodeEditRequestPayload(const WireRuleEditRequest& request,
                              Encoder& enc);
Result<WireRuleEditRequest> DecodeEditRequestPayload(std::string_view payload);
void EncodeEditResponsePayload(const WireRuleEditResponse& response,
                               Encoder& enc);
Result<WireRuleEditResponse> DecodeEditResponsePayload(
    std::string_view payload);

/// Builds a response payload from a pipeline result (request_id echoed,
/// Status mapped through CodeFor, report counters copied).
WireClassifyResponse ResponseFrom(uint64_t request_id,
                                  const chimera::ClassifyResponse& result);

/// Frames larger than this are refused on both ends: a corrupt or
/// hostile length prefix must not make a reader allocate gigabytes.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

/// Blocking framed-transport helpers over a connected socket fd. Both
/// retry EINTR; short reads mean the peer closed (kNotFound signals a
/// clean EOF on a frame boundary, kIOError a torn frame or socket
/// error).
Status WriteFrame(int fd, FrameType type, std::string_view payload);
struct Frame {
  FrameType type;
  std::string payload;
};
Result<Frame> ReadFrame(int fd);

/// Turns off Nagle's algorithm so small frames leave at once instead of
/// waiting on the peer's delayed ACK. Every RuleKit TCP socket sets it.
void SetNoDelay(int fd);

}  // namespace rulekit::serving

#endif  // RULEKIT_SERVING_WIRE_H_
