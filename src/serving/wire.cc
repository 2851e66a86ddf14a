#include "src/serving/wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/string_util.h"

namespace rulekit::serving {

WireCode CodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireCode::kOk;
    case StatusCode::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case StatusCode::kResourceExhausted:
      return WireCode::kOverloaded;
    case StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return WireCode::kUnavailable;
    default:
      return WireCode::kInternal;
  }
}

Status StatusFor(WireCode code, const std::string& message) {
  switch (code) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireCode::kOverloaded:
      return Status::ResourceExhausted(message);
    case WireCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireCode::kUnavailable:
      return Status::Unavailable(message);
    case WireCode::kInternal:
      return Status::Internal(message);
    case WireCode::kReadOnly:
      return Status::FailedPrecondition(message);
  }
  return Status::Internal(message);  // unreachable for pinned codes
}

void EncodeRequestPayload(const WireClassifyRequest& request, Encoder& enc) {
  enc.PutVarint(request.request_id);
  enc.PutString(request.tenant);
  enc.PutVarint(request.deadline_ms);
  uint8_t flags = 0;
  if (request.no_coalesce) flags |= kFlagNoCoalesce;
  if (request.require_durable) flags |= kFlagRequireDurable;
  enc.PutU8(flags);
  enc.PutVarint(request.items.size());
  for (const auto& item : request.items) {
    enc.PutString(item.id);
    enc.PutString(item.title);
    enc.PutVarint(item.attributes.size());
    for (const auto& [name, value] : item.attributes) {
      enc.PutString(name);
      enc.PutString(value);
    }
  }
}

Result<WireClassifyRequest> DecodeRequestPayload(std::string_view payload) {
  Decoder dec(payload);
  WireClassifyRequest request;
  request.request_id = dec.Varint();
  request.tenant = dec.String();
  request.deadline_ms = dec.Varint();
  uint8_t flags = dec.U8();
  if (dec.ok() && (flags & ~kKnownFlags) != 0) {
    dec.Fail(StrFormat("unknown request flags 0x%02x", flags));
  }
  request.no_coalesce = (flags & kFlagNoCoalesce) != 0;
  request.require_durable = (flags & kFlagRequireDurable) != 0;
  uint64_t item_count = dec.Varint();
  // Each item costs at least 3 payload bytes (two empty strings + attr
  // count), so an item_count beyond payload size is a corrupt frame, not
  // a big batch — refuse before reserving anything.
  if (dec.ok() && item_count > payload.size()) {
    dec.Fail(StrFormat("item count %llu exceeds payload size",
                       static_cast<unsigned long long>(item_count)));
  }
  if (dec.ok()) request.items.reserve(item_count);
  for (uint64_t i = 0; dec.ok() && i < item_count; ++i) {
    data::ProductItem item;
    item.id = dec.String();
    item.title = dec.String();
    uint64_t attr_count = dec.Varint();
    if (dec.ok() && attr_count > payload.size()) {
      dec.Fail(StrFormat("attribute count %llu exceeds payload size",
                         static_cast<unsigned long long>(attr_count)));
    }
    for (uint64_t a = 0; dec.ok() && a < attr_count; ++a) {
      std::string name = dec.String();
      std::string value = dec.String();
      item.attributes.emplace_back(std::move(name), std::move(value));
    }
    request.items.push_back(std::move(item));
  }
  if (!dec.ok()) return dec.status();
  if (!dec.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing bytes after ClassifyRequest payload",
        payload.size() - dec.position()));
  }
  return request;
}

void EncodeResponsePayload(const WireClassifyResponse& response,
                           Encoder& enc) {
  enc.PutVarint(response.request_id);
  enc.PutU8(static_cast<uint8_t>(response.code));
  enc.PutString(response.message);
  enc.PutVarint(response.total);
  enc.PutVarint(response.gate_classified);
  enc.PutVarint(response.gate_rejected);
  enc.PutVarint(response.classified);
  enc.PutVarint(response.filtered);
  enc.PutVarint(response.suppressed);
  enc.PutVarint(response.declined);
  enc.PutVarint(response.cache_hits);
  enc.PutVarint(response.predictions.size());
  for (const auto& prediction : response.predictions) {
    enc.PutU8(prediction.has_value() ? 1 : 0);
    enc.PutString(prediction.has_value() ? *prediction
                                         : std::string_view());
  }
}

Result<WireClassifyResponse> DecodeResponsePayload(
    std::string_view payload) {
  Decoder dec(payload);
  WireClassifyResponse response;
  response.request_id = dec.Varint();
  uint8_t code = dec.U8();
  if (dec.ok() && code > kMaxWireCode) {
    dec.Fail(StrFormat("unknown response code %u", code));
  }
  response.code = static_cast<WireCode>(code);
  response.message = dec.String();
  response.total = dec.Varint();
  response.gate_classified = dec.Varint();
  response.gate_rejected = dec.Varint();
  response.classified = dec.Varint();
  response.filtered = dec.Varint();
  response.suppressed = dec.Varint();
  response.declined = dec.Varint();
  response.cache_hits = dec.Varint();
  uint64_t prediction_count = dec.Varint();
  if (dec.ok() && prediction_count > payload.size()) {
    dec.Fail(StrFormat("prediction count %llu exceeds payload size",
                       static_cast<unsigned long long>(prediction_count)));
  }
  if (dec.ok()) response.predictions.reserve(prediction_count);
  for (uint64_t i = 0; dec.ok() && i < prediction_count; ++i) {
    uint8_t has = dec.U8();
    std::string value = dec.String();
    if (dec.ok() && has > 1) {
      dec.Fail(StrFormat("bad prediction presence byte %u", has));
    }
    if (has != 0) {
      response.predictions.push_back(std::move(value));
    } else {
      response.predictions.push_back(std::nullopt);
    }
  }
  if (!dec.ok()) return dec.status();
  if (!dec.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing bytes after ClassifyResponse payload",
        payload.size() - dec.position()));
  }
  return response;
}

void EncodeEditRequestPayload(const WireRuleEditRequest& request,
                              Encoder& enc) {
  enc.PutVarint(request.request_id);
  enc.PutString(request.tenant);
  enc.PutString(request.author);
  enc.PutU8(static_cast<uint8_t>(request.op));
  enc.PutString(request.rule_dsl);
  enc.PutString(request.rule_id);
  enc.PutDouble(request.confidence);
  enc.PutString(request.detail);
}

Result<WireRuleEditRequest> DecodeEditRequestPayload(
    std::string_view payload) {
  Decoder dec(payload);
  WireRuleEditRequest request;
  request.request_id = dec.Varint();
  request.tenant = dec.String();
  request.author = dec.String();
  uint8_t op = dec.U8();
  if (dec.ok() && op > static_cast<uint8_t>(EditOp::kSetConfidence)) {
    dec.Fail(StrFormat("unknown edit op %u", op));
  }
  request.op = static_cast<EditOp>(op);
  request.rule_dsl = dec.String();
  request.rule_id = dec.String();
  request.confidence = dec.F64();
  request.detail = dec.String();
  if (!dec.ok()) return dec.status();
  if (!dec.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing bytes after RuleEditRequest payload",
        payload.size() - dec.position()));
  }
  return request;
}

void EncodeEditResponsePayload(const WireRuleEditResponse& response,
                               Encoder& enc) {
  enc.PutVarint(response.request_id);
  enc.PutU8(static_cast<uint8_t>(response.code));
  enc.PutString(response.message);
  enc.PutVarint(response.rules_added);
}

Result<WireRuleEditResponse> DecodeEditResponsePayload(
    std::string_view payload) {
  Decoder dec(payload);
  WireRuleEditResponse response;
  response.request_id = dec.Varint();
  uint8_t code = dec.U8();
  if (dec.ok() && code > kMaxWireCode) {
    dec.Fail(StrFormat("unknown response code %u", code));
  }
  response.code = static_cast<WireCode>(code);
  response.message = dec.String();
  response.rules_added = dec.Varint();
  if (!dec.ok()) return dec.status();
  if (!dec.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "%zu trailing bytes after RuleEditResponse payload",
        payload.size() - dec.position()));
  }
  return response;
}

WireClassifyResponse ResponseFrom(uint64_t request_id,
                                  const chimera::ClassifyResponse& result) {
  WireClassifyResponse response;
  response.request_id = request_id;
  response.code = CodeFor(result.status);
  response.message = result.status.message();
  const chimera::BatchReport& report = result.report;
  response.total = report.total;
  response.gate_classified = report.gate_classified;
  response.gate_rejected = report.gate_rejected;
  response.classified = report.classified;
  response.filtered = report.filtered;
  response.suppressed = report.suppressed;
  response.declined = report.declined;
  response.cache_hits = report.cache_hits;
  response.predictions = report.predictions;
  return response;
}

namespace {

/// send(2) until all of `data` is on the wire (or a real error). A peer
/// that already closed yields EPIPE, not a process-killing SIGPIPE.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("write: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// read(2) until `size` bytes arrived. kNotFound on EOF at offset 0
/// (clean close between frames), kIOError on a torn frame or error.
Status ReadAll(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("read: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("connection closed");
      return Status::IOError(StrFormat(
          "connection closed mid-frame (%zu of %zu bytes)", got, size));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(StrFormat(
        "frame payload %zu exceeds the %u-byte limit", payload.size(),
        kMaxFramePayload));
  }
  // One buffered write per frame: header + payload together, so
  // concurrent writers on the same socket (guarded by the caller's
  // mutex) never interleave partial frames.
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  enc.PutU8(static_cast<uint8_t>(type));
  std::string buffer = enc.Release();
  buffer.append(payload);
  return WriteAll(fd, buffer.data(), buffer.size());
}

Result<Frame> ReadFrame(int fd) {
  char header[5];
  RULEKIT_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header)));
  Decoder dec(std::string_view(header, sizeof(header)));
  uint32_t length = dec.U32();
  uint8_t type = dec.U8();
  if (length > kMaxFramePayload) {
    return Status::IOError(StrFormat(
        "frame payload %u exceeds the %u-byte limit", length,
        kMaxFramePayload));
  }
  if (type < static_cast<uint8_t>(FrameType::kClassifyRequest) ||
      type > kMaxFrameType) {
    return Status::IOError(StrFormat("unknown frame type %u", type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(length);
  if (length > 0) {
    Status st = ReadAll(fd, frame.payload.data(), length);
    if (!st.ok()) {
      // EOF inside a frame body is always torn, even at payload offset 0.
      if (st.code() == StatusCode::kNotFound) {
        return Status::IOError("connection closed mid-frame");
      }
      return st;
    }
  }
  return frame;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace rulekit::serving
