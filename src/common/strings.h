// Small string helpers shared by CSV I/O, bench table printers and hashing.

#ifndef FRT_COMMON_STRINGS_H_
#define FRT_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace frt {

/// Strips ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

/// \brief Parses a double from `s` with ASCII whitespace stripped.
///
/// Accepts exactly what strtod accepts as a whole field without ERANGE
/// (signs, hex, inf/nan, ...), with strtod's value bits; anything else is
/// an InvalidArgument naming the field. Common decimals take an
/// allocation-free std::from_chars path; the rest goes through strtod.
/// Callers that need finite values check (ParseCsvRecord does).
Result<double> ParseDouble(std::string_view s);

/// \brief Parses a base-10 signed 64-bit integer from `s` with ASCII
/// whitespace stripped.
///
/// Accepts exactly what strtoll(s, &end, 10) accepts as a whole field
/// without ERANGE, with the same value; from_chars serves the common
/// case without allocating.
Result<int64_t> ParseInt64(std::string_view s);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief FNV-1a 64 from offset basis 1469598103934665603, one digit short
/// of the published one, so not the reference values. Pinned: it seeds
/// feed RNG streams (FeedStreamSeed) and checksums checkpoints.
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace frt

#endif  // FRT_COMMON_STRINGS_H_
