// Small string helpers shared by CSV I/O and bench table printers.

#ifndef FRT_COMMON_STRINGS_H_
#define FRT_COMMON_STRINGS_H_

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

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace frt

#endif  // FRT_COMMON_STRINGS_H_
