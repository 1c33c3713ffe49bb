#include "service/protocol.h"

#include <cstdlib>

#include "util/string_util.h"

namespace mcm::service::protocol {

namespace {

/// strtoull with a full-token match ("12x" and "" both fail).
bool ParseU64(std::string_view token, uint64_t* out) {
  std::string num(token);
  char* end = nullptr;
  *out = std::strtoull(num.c_str(), &end, 10);
  return !num.empty() && end != nullptr && *end == '\0';
}

}  // namespace

bool IsValidUtf8(std::string_view s) {
  size_t i = 0;
  while (i < s.size()) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    size_t len;
    uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      len = 2;
      cp = c & 0x1F;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      cp = c & 0x0F;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      cp = c & 0x07;
    } else {
      return false;  // stray continuation byte or 5+/invalid lead
    }
    if (i + len > s.size()) return false;  // truncated sequence
    for (size_t k = 1; k < len; ++k) {
      unsigned char cont = static_cast<unsigned char>(s[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cont & 0x3F);
    }
    // Overlong encodings, UTF-16 surrogates, and out-of-range code points
    // are the classic smuggling vectors — reject all three.
    static constexpr uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMinForLen[len]) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    i += len;
  }
  return true;
}

Status SanitizeLine(std::string_view line, const LineLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    return Status::InvalidArgument(StringPrintf(
        "line_too_long: %zu bytes exceeds the %zu-byte request cap",
        line.size(), limits.max_line_bytes));
  }
  if (line.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument(
        "embedded_nul: request lines must not contain NUL bytes");
  }
  if (!IsValidUtf8(line)) {
    return Status::InvalidArgument(
        "invalid_utf8: request lines must be well-formed UTF-8");
  }
  return Status::OK();
}

Result<RequestPrefixes> ParsePrefixes(std::string_view line) {
  RequestPrefixes out;
  std::string_view rest = Trim(line);
  while (!rest.empty() && rest[0] == '@') {
    size_t sp = rest.find(' ');
    if (sp == std::string_view::npos) {
      return Status::InvalidArgument(
          "@-prefixes must be followed by a query");
    }
    std::string_view tok = rest.substr(0, sp);
    if (StartsWith(tok, "@timeout=")) {
      if (!ParseU64(tok.substr(9), &out.timeout_ms)) {
        return Status::InvalidArgument(
            StringPrintf("bad @timeout value '%.*s'",
                         static_cast<int>(tok.size() - 9), tok.data() + 9));
      }
    } else if (StartsWith(tok, "@max_lag=")) {
      if (!ParseU64(tok.substr(9), &out.max_lag_epochs)) {
        return Status::InvalidArgument(
            StringPrintf("bad @max_lag value '%.*s'",
                         static_cast<int>(tok.size() - 9), tok.data() + 9));
      }
    } else if (tok == "@stale_ok") {
      out.stale_ok = true;
    } else {
      return Status::InvalidArgument(StringPrintf(
          "unknown prefix '%.*s'", static_cast<int>(tok.size()), tok.data()));
    }
    rest = Trim(rest.substr(sp + 1));
  }
  if (rest.empty()) {
    return Status::InvalidArgument("empty query");
  }
  out.query = rest;
  return out;
}

Result<uint64_t> ParseBatchHeader(std::string_view line, uint64_t max_batch) {
  std::string_view rest = Trim(line);
  if (!StartsWith(rest, "BATCH")) {
    return Status::InvalidArgument("not a BATCH frame");
  }
  rest = Trim(rest.substr(5));
  uint64_t n = 0;
  if (!ParseU64(rest, &n)) {
    return Status::InvalidArgument(StringPrintf(
        "bad BATCH count '%.*s' (want BATCH n)",
        static_cast<int>(rest.size()), rest.data()));
  }
  if (n == 0) {
    return Status::InvalidArgument("BATCH count must be >= 1");
  }
  if (n > max_batch) {
    return Status::InvalidArgument(StringPrintf(
        "BATCH count %llu exceeds the cap of %llu",
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(max_batch)));
  }
  return n;
}

QueryRequest MakeRequest(const std::string& rules,
                         const RequestPrefixes& prefixes,
                         std::string_view method) {
  QueryRequest req;
  req.timeout_ms = prefixes.timeout_ms;
  req.max_lag_epochs = prefixes.max_lag_epochs;
  req.serve_stale = prefixes.stale_ok;
  (void)core::ParseMethod(method, &req.planner);  // validated at start-up
  req.program_text = rules + "\n" + std::string(prefixes.query);
  return req;
}

std::string FormatResponse(uint64_t tag, const QueryResponse& resp) {
  if (resp.outcome == Outcome::kOk) {
    const std::string& method_used =
        resp.report.attempts.empty() ? std::string("?")
                                     : resp.report.attempts.back().method;
    return StringPrintf(
        "[%llu] ok: %zu tuples %s@epoch %llu in %.2fms (queue %.2fms, "
        "method %s, retries %d)\n",
        static_cast<unsigned long long>(tag), resp.report.results.size(),
        resp.stale ? "stale" : "",
        static_cast<unsigned long long>(resp.edb_epoch),
        resp.run_seconds * 1e3, resp.queue_seconds * 1e3,
        method_used.c_str(), resp.retries);
  }
  return StringPrintf("[%llu] %s: %s\n",
                      static_cast<unsigned long long>(tag),
                      std::string(OutcomeToString(resp.outcome)).c_str(),
                      resp.status.ToString().c_str());
}

std::string FormatError(uint64_t tag, std::string_view msg) {
  return StringPrintf("[%llu] error: %.*s\n",
                      static_cast<unsigned long long>(tag),
                      static_cast<int>(msg.size()), msg.data());
}

}  // namespace mcm::service::protocol
