#pragma once

/// \file protocol.hpp
/// Length-prefixed framing for the worker-subprocess wire protocol
/// (`peak::proc`). Every message between the supervisor and a worker is
/// one frame: eight lowercase hex digits giving the payload byte length,
/// then exactly that many payload bytes. Payloads are single-line JSONL
/// records in the same dialect as the journal and rating cache
/// (core/jsonl), so a result frame can carry bit-exact doubles.
///
/// The framing exists because pipes deliver byte streams, not messages: a
/// worker killed mid-write leaves a partial frame, and the reader must be
/// able to tell "incomplete, keep waiting" from "complete, process it"
/// from "corrupt, the peer is broken". FrameReader is incremental — feed
/// it whatever read() returned and drain complete frames — and flags
/// corruption (a non-hex prefix or an absurd length) without throwing, so
/// the supervisor can classify the worker instead of dying with it.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace peak::proc {

/// Upper bound on a single frame payload. Far above anything a member
/// result serializes to; a prefix decoding past it means the stream is
/// garbage (e.g. the peer wrote raw text), not a huge frame.
constexpr std::size_t kMaxFramePayload = 64u << 20;

/// Number of hex digits in the length prefix.
constexpr std::size_t kFramePrefixLen = 8;

/// payload -> "001a2b3c<payload>".
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Write one frame to `fd`, retrying short writes and EINTR. False when
/// the peer is gone (EPIPE / any write error).
bool write_frame(int fd, std::string_view payload);

/// A dead peer must surface as EPIPE from write_frame, not as a
/// process-fatal SIGPIPE. Installed once, never restored: SIG_IGN for
/// SIGPIPE is safe for every writer in this process (they all check
/// write() results). Forked workers reset it to the default.
void ignore_sigpipe_once();

/// Incremental frame decoder over an arbitrary byte stream.
class FrameReader {
public:
  /// Append raw bytes read from the pipe.
  void feed(const char* data, std::size_t n);

  /// Next complete payload, or nullopt when more bytes are needed (or
  /// the stream is corrupt — check corrupted()).
  std::optional<std::string> next();

  /// True once an invalid prefix was seen; the stream is unusable.
  [[nodiscard]] bool corrupted() const { return corrupted_; }

  /// Bytes buffered but not yet consumed (a partial frame at EOF means
  /// the peer died mid-write).
  [[nodiscard]] std::size_t pending_bytes() const {
    return buffer_.size();
  }

private:
  std::string buffer_;
  bool corrupted_ = false;
};

}  // namespace peak::proc
