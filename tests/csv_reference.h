// Reference CSV parsers for the codec tests: verbatim copies of the
// strtoll/strtod-based ParseInt64, ParseDouble and ParseCsvRecord that
// the from_chars codec replaced (common/strings.cc, traj/io.cc). They
// define the accepted set, every value's bits and every error text the
// codec must keep; do not "fix" them.

#ifndef FRT_TESTS_CSV_REFERENCE_H_
#define FRT_TESTS_CSV_REFERENCE_H_

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "traj/io.h"

namespace frt {
namespace reference {

inline std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

inline std::string_view StripAsciiWhitespace(std::string_view s) {
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

inline Result<double> ParseDouble(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed double: '" + buf + "'");
  }
  return v;
}

inline Result<int64_t> ParseInt64(std::string_view s) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

inline Result<std::optional<CsvRecord>> ParseCsvRecord(std::string_view line,
                                                       size_t lineno) {
  const std::string_view stripped = StripAsciiWhitespace(line);
  if (stripped.empty() || stripped[0] == '#') return std::optional<CsvRecord>();
  const auto fields = Split(stripped, ',');
  if (fields.size() != 4) {
    return Status::IOError("line " + std::to_string(lineno) +
                           ": expected 4 fields, got " +
                           std::to_string(fields.size()));
  }
  CsvRecord record;
  FRT_ASSIGN_OR_RETURN(record.id, ParseInt64(fields[0]));
  FRT_ASSIGN_OR_RETURN(record.p.x, ParseDouble(fields[1]));
  FRT_ASSIGN_OR_RETURN(record.p.y, ParseDouble(fields[2]));
  if (!std::isfinite(record.p.x) || !std::isfinite(record.p.y)) {
    return Status::IOError("line " + std::to_string(lineno) +
                           ": non-finite coordinate");
  }
  FRT_ASSIGN_OR_RETURN(record.t, ParseInt64(fields[3]));
  return std::optional<CsvRecord>(record);
}

}  // namespace reference

// Renders a parse result so two results compare equal exactly when they
// hold the same value bits, or the same error code and text.
inline std::string DescribeBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, bits);
  return buf;
}

inline std::string Describe(const Result<double>& r) {
  return r.ok() ? "ok " + DescribeBits(*r) : r.status().ToString();
}

inline std::string Describe(const Result<int64_t>& r) {
  return r.ok() ? "ok " + std::to_string(*r) : r.status().ToString();
}

inline std::string Describe(const Result<std::optional<CsvRecord>>& r) {
  if (!r.ok()) return r.status().ToString();
  if (!r->has_value()) return "ok (no record)";
  const CsvRecord& rec = **r;
  return "ok " + std::to_string(rec.id) + "," + DescribeBits(rec.p.x) + "," +
         DescribeBits(rec.p.y) + "," + std::to_string(rec.t);
}

}  // namespace frt

#endif  // FRT_TESTS_CSV_REFERENCE_H_
