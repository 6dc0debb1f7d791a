#include "stream/ingest.h"

#include <algorithm>
#include <string>

#include "common/strings.h"

namespace frt {

bool IsValidFeedId(std::string_view feed) {
  if (feed.empty() || feed.size() > kMaxFeedIdBytes || feed[0] == '.') {
    return false;
  }
  return std::all_of(feed.begin(), feed.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

Result<std::optional<CsvRecord>> ParseFeedCsvRecord(std::string_view line,
                                                    size_t lineno,
                                                    std::string_view* feed) {
  const std::string_view stripped = StripAsciiWhitespace(line);
  if (stripped.empty() || stripped[0] == '#') {
    return std::optional<CsvRecord>();
  }
  const size_t comma = line.find(',');
  if (comma == std::string_view::npos) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": expected feed,traj_id,x,y,t");
  }
  *feed = line.substr(0, comma);
  if (!IsValidFeedId(*feed)) {
    return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                   kFeedIdRule);
  }
  return ParseCsvRecord(line.substr(comma + 1), lineno);
}

}  // namespace frt
