// Wire protocol of the cluster socket front-end.
//
// Length-prefixed binary frames, little-endian throughout:
//
//   frame    := u32 payload_length | payload
//   request  := u32 magic "ODN2" | u64 request_id | u8 priority
//             | u8 flags (bit0: evictable) | u32 deadline_us (0 = none)
//             | u64 model_version (0 = whatever is active)
//             | u16 tenant_len | u16 model_len
//             | u16 channels | u16 height | u16 width
//             | tenant bytes | model bytes | f32 * (c*h*w) pixels
//   response := u32 magic "ODR2" | u64 request_id | u8 status
//             | u8 shard | i32 predicted | f32 latency_ms
//             | u64 model_version (version that served the request)
//             | u16 logits_n | u16 message_len
//             | f32 * logits_n | message bytes
//
// The request names the model it targets (empty = the shard's configured
// model) and an optional pinned model_version; the response echoes the
// snapshot version that actually served. This is the second layout of
// the protocol; the first ("QNDO"/"RNDO", without the model fields) is
// retired, so its frames fail the magic check like any other bad magic.
//
// request_id correlates responses with requests: the server echoes it
// back verbatim, so a client may pipeline many requests per connection
// and match completions by id. Payloads are bounded by kMaxFramePayload;
// a frame promising more is a protocol error and the server drops the
// connection (framing cannot be resynchronized).
//
// Encoders return a COMPLETE frame (length prefix included); decoders
// take one frame's payload (prefix already stripped) and throw
// odenet::Error on truncated or malformed bytes — the same error path a
// test can hit by feeding a cut-short buffer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/request.hpp"

namespace odenet::cluster {

/// Bytes of the u32 length prefix in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;
/// Upper bound on one frame's payload; larger prefixes are protocol
/// errors, never allocation requests.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 22;

inline constexpr std::uint32_t kRequestMagicV2 = 0x324E444Fu;   // "ODN2" LE
inline constexpr std::uint32_t kResponseMagicV2 = 0x3252444Fu;  // "ODR2" LE

/// Terminal outcome of one request, mirrored from the engine's error
/// taxonomy: kShed is QueueFull (admission control, cluster-wide),
/// kDeadlineExceeded the per-request deadline, kError everything else
/// (malformed image, bad priority byte, engine failure).
enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kShed = 1,
  kDeadlineExceeded = 2,
  kError = 3,
};

std::string response_status_name(ResponseStatus status);

/// Shard byte of a response that never reached a shard (shed/error).
inline constexpr std::uint8_t kNoShardByte = 0xFF;

struct WireRequest {
  std::uint64_t id = 0;
  runtime::Priority priority = runtime::Priority::kNormal;
  bool evictable = true;
  /// Relative deadline in microseconds; 0 = none.
  std::uint32_t deadline_us = 0;
  /// Placement key: requests of one tenant hash to one home shard.
  std::string tenant;
  /// Model the request targets (empty = shard's configured model) and an
  /// optional pinned snapshot version (0 = active).
  std::string model;
  std::uint64_t model_version = 0;
  std::uint16_t channels = 0;
  std::uint16_t height = 0;
  std::uint16_t width = 0;
  /// channels*height*width floats, C-major like core::Tensor.
  std::vector<float> pixels;
};

struct WireResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kError;
  /// Index of the shard that served the request; kNoShardByte when none.
  std::uint8_t shard = kNoShardByte;
  std::int32_t predicted = -1;
  float latency_ms = 0.0f;
  /// Snapshot version that served the request (0 when shed/error).
  std::uint64_t model_version = 0;
  std::vector<float> logits;
  /// Human-readable failure detail (empty on kOk).
  std::string message;
};

/// Serializes to a complete frame, length prefix included.
std::vector<std::uint8_t> encode_request(const WireRequest& req);
std::vector<std::uint8_t> encode_response(const WireResponse& res);

/// Parses one frame's payload. Throws odenet::Error on a truncated
/// payload, a bad magic, or length fields that disagree with `size`.
WireRequest decode_request(const std::uint8_t* payload, std::size_t size);
WireResponse decode_response(const std::uint8_t* payload, std::size_t size);

/// Reads the u32 little-endian payload length out of a frame header.
std::uint32_t decode_frame_length(const std::uint8_t* header);

}  // namespace odenet::cluster
