#include "src/serving/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/string_util.h"

namespace rulekit::serving {

Result<RuleClient> RuleClient::Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status st = Status::IOError(StrFormat("connect 127.0.0.1:%u: %s", port,
                                          std::strerror(errno)));
    ::close(fd);
    return st;
  }
  SetNoDelay(fd);
  return RuleClient(fd);
}

Status RuleClient::Send(const WireClassifyRequest& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  Encoder enc;
  EncodeRequestPayload(request, enc);
  return WriteFrame(fd_, FrameType::kClassifyRequest, enc.data());
}

Result<WireClassifyResponse> RuleClient::Receive() {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  RULEKIT_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (frame.type != FrameType::kClassifyResponse) {
    return Status::IOError("expected a ClassifyResponse frame");
  }
  return DecodeResponsePayload(frame.payload);
}

Result<WireClassifyResponse> RuleClient::Call(
    const WireClassifyRequest& request) {
  RULEKIT_RETURN_IF_ERROR(Send(request));
  RULEKIT_ASSIGN_OR_RETURN(WireClassifyResponse response, Receive());
  if (response.request_id != request.request_id) {
    return Status::Internal(StrFormat(
        "response id %llu does not match request id %llu (interleaved "
        "Call/Send on one connection?)",
        static_cast<unsigned long long>(response.request_id),
        static_cast<unsigned long long>(request.request_id)));
  }
  return response;
}

Result<WireRuleEditResponse> RuleClient::CallEdit(
    const WireRuleEditRequest& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  Encoder enc;
  EncodeEditRequestPayload(request, enc);
  RULEKIT_RETURN_IF_ERROR(
      WriteFrame(fd_, FrameType::kRuleEditRequest, enc.data()));
  RULEKIT_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (frame.type != FrameType::kRuleEditResponse) {
    return Status::IOError("expected a RuleEditResponse frame");
  }
  RULEKIT_ASSIGN_OR_RETURN(WireRuleEditResponse response,
                           DecodeEditResponsePayload(frame.payload));
  if (response.request_id != request.request_id) {
    return Status::Internal(StrFormat(
        "edit response id %llu does not match request id %llu",
        static_cast<unsigned long long>(response.request_id),
        static_cast<unsigned long long>(request.request_id)));
  }
  return response;
}

void RuleClient::FinishSending() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void RuleClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace rulekit::serving
