// Feed-aware CSV ingest: the feed-id rule and the interleaved multi-feed
// format `feed,traj_id,x,y,t`, read by the one chunked CSV reader of
// traj/io.h (included from here, with TrajectoryReader) given its own
// row parser.

#ifndef FRT_STREAM_INGEST_H_
#define FRT_STREAM_INGEST_H_

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string_view>

#include "common/result.h"
#include "traj/io.h"

namespace frt {

/// Longest accepted feed id, in bytes.
inline constexpr size_t kMaxFeedIdBytes = 128;

/// \brief True when `feed` may name a feed: 1 to kMaxFeedIdBytes bytes of
/// [A-Za-z0-9._-], not starting with '.'. Feed ids become output file
/// names (`frt_serve --output-dir`) and `frt_feed` metrics fields, so
/// every place an id enters the process — frame decode, the multi-feed
/// CSV, --input NAME= — rejects anything else.
bool IsValidFeedId(std::string_view feed);

/// Why IsValidFeedId rejected a feed id (never echoes the id itself).
inline constexpr const char* kFeedIdRule =
    "invalid feed id (want 1-128 characters of [A-Za-z0-9._-], not "
    "starting with '.')";

/// \brief Parses one row of the multi-feed format `feed,traj_id,x,y,t`:
/// nullopt for a blank or '#' row (after stripping ASCII whitespace), else
/// ParseCsvRecord of the text after the first comma, with `*feed` the text
/// before it, which must pass IsValidFeedId. Errors name `lineno`.
Result<std::optional<CsvRecord>> ParseFeedCsvRecord(std::string_view line,
                                                    size_t lineno,
                                                    std::string_view* feed);

/// \brief Reader of the interleaved multi-feed CSV: the chunked CSV reader
/// with ParseFeedCsvRecord as its row parser. Per feed, consecutive
/// same-id rows form one trajectory, so feeds may interleave freely.
class MultiFeedReader : public CsvTrajectoryReader {
 public:
  explicit MultiFeedReader(std::istream& in,
                           TrajectoryReaderOptions options = {})
      : CsvTrajectoryReader(in, &ParseFeedCsvRecord, options) {}
};

}  // namespace frt

#endif  // FRT_STREAM_INGEST_H_
