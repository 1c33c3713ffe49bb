// The mcm-serve line protocol, factored out of the stdin loop so the TCP
// front end speaks *exactly* the same language — one parser, one sanitizer,
// one response formatter, shared by both transports.
//
// A request line is:
//
//   [@timeout=MS] [@max_lag=N] [@stale_ok] <query text>?
//
// and the transport-independent hardening lives here too: every line is
// sanitized before any parsing (length cap, embedded NUL, invalid UTF-8 —
// each a distinct structured error), because `std::getline` and a socket
// read buffer are both unauthenticated byte firehoses.
//
// Batch frames ("BATCH n": the next n lines share one admission decision
// and one epoch pin) are parsed here as well; executing them is the
// caller's job (service::QueryService::SubmitBatch).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/planner.h"
#include "service/query_service.h"
#include "util/status.h"

namespace mcm::service::protocol {

/// Transport-independent per-line limits.
struct LineLimits {
  /// Hard cap on one request line. A line that exceeds it is hostile by
  /// definition (the largest legitimate query is orders of magnitude
  /// smaller); the stdin loop rejects the line, the TCP loop also tears
  /// the connection down (it cannot trust the framing any more).
  size_t max_line_bytes = 64 * 1024;
};

/// True iff `s` is well-formed UTF-8 (rejects overlong encodings,
/// surrogates, and code points beyond U+10FFFF).
bool IsValidUtf8(std::string_view s);

/// Validate one *complete* request line against `limits`. Returns
/// InvalidArgument with a structured "line_too_long" / "embedded_nul" /
/// "invalid_utf8" reason prefix on rejection; the caller turns that into a
/// protocol error response.
[[nodiscard]] Status SanitizeLine(std::string_view line,
                                  const LineLimits& limits);

/// The @-prefixes of a request line, plus the remaining query text.
struct RequestPrefixes {
  uint64_t timeout_ms = 0;              ///< 0 = server default
  uint64_t max_lag_epochs = UINT64_MAX; ///< UINT64_MAX = unbounded
  bool stale_ok = false;
  std::string_view query;  ///< view into the input after the prefixes
};

/// Parse the leading @-prefixes ("@timeout=", "@max_lag=", "@stale_ok").
/// InvalidArgument on an unknown prefix, a malformed value, or prefixes
/// with no query after them.
[[nodiscard]] Result<RequestPrefixes> ParsePrefixes(std::string_view line);

/// Parse a "BATCH n" frame header. Returns n (>= 1, <= max_batch);
/// InvalidArgument when the count is missing, malformed, zero, or over the
/// cap. The caller must already have matched the "BATCH" keyword.
[[nodiscard]] Result<uint64_t> ParseBatchHeader(std::string_view line,
                                                uint64_t max_batch);

/// Build the QueryRequest for one sanitized, prefix-parsed query line:
/// rules + query text, governor knobs from the prefixes, planner strategy
/// from the `method` spec (core::ParseMethod's vocabulary; the server
/// validates its spec once at start-up with the same parser).
[[nodiscard]] QueryRequest MakeRequest(const std::string& rules,
                                       const RequestPrefixes& prefixes,
                                       std::string_view method);

/// Format one answered response exactly as the stdin loop prints it
/// (including the trailing newline). `tag` is the bracketed id: the
/// service-global ticket id on stdin, the per-connection request ordinal
/// over TCP.
std::string FormatResponse(uint64_t tag, const QueryResponse& resp);

/// Format a per-request protocol error ("[tag] error: <msg>\n") — the
/// request is consumed, the stream stays usable.
std::string FormatError(uint64_t tag, std::string_view msg);

}  // namespace mcm::service::protocol
