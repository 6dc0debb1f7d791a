#include "common/strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace frt {

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' ||
                   s[b] == '\n')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

namespace {

// The strtod/strtoll definitions of ParseDouble/ParseInt64. The from_chars
// fast paths below hand every field they do not settle to these, so the
// accepted set, the values and the error texts are theirs.
Result<double> StrtodField(std::string_view s) {
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed double: '" + buf + "'");
  }
  return v;
}

Result<int64_t> StrtollField(std::string_view s) {
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Result<double> ParseDouble(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  // from_chars and strtod both round correctly, so they agree on every
  // field from_chars consumes whole into a normal value. strtod reports
  // underflow (ERANGE) below the smallest normal and also for some fields
  // that round up to it (2.2250738585072012e-308), so that value, a
  // leading '+', hex, inf/nan, subnormals, zero and out-of-range values
  // all take the strtod path.
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && end == s.data() + s.size() && std::isnormal(v) &&
      std::fabs(v) != std::numeric_limits<double>::min()) {
    return v;
  }
  return StrtodField(s);
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  // Base-10 from_chars takes a subset of strtoll's syntax (no '+', no
  // leading whitespace) with the same values; the rest, out-of-range
  // values included, takes the strtoll path.
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && end == s.data() + s.size()) return v;
  return StrtollField(s);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace frt
