// Incremental trajectory ingest for the streaming runtime.
//
// TrajectoryReader consumes the dataset CSV format (traj/io.h) from any
// std::istream — a file, a pipe, or stdin — in bounded chunks, and
// assembles complete trajectories from consecutive same-id lines without
// ever materializing the whole dataset. Memory held at any moment is one
// read chunk plus the trajectory currently being assembled, which is what
// lets frt_stream anonymize an unbounded feed with `--input -`.
//
// A trajectory is considered complete when a line with a different id (or
// end of stream) is seen, so inputs must keep each trajectory's lines
// contiguous — the same contract LoadDatasetCsv has always had.

#ifndef FRT_STREAM_INGEST_H_
#define FRT_STREAM_INGEST_H_

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace frt {

/// Tuning knobs of the incremental reader.
struct TrajectoryReaderOptions {
  /// Upper bound on bytes pulled from the stream per refill. A refill
  /// blocks only until the first byte is available and then takes what the
  /// stream already has buffered, so live feeds are consumed as they
  /// arrive. Small values are useful in tests to exercise chunk boundaries
  /// inside lines; the default amortizes syscall cost.
  size_t chunk_bytes = 1 << 16;
};

/// \brief Pull-based reader: one complete trajectory per Next() call.
class TrajectoryReader {
 public:
  /// The stream must outlive the reader. Reading starts at the stream's
  /// current position.
  explicit TrajectoryReader(std::istream& in,
                            TrajectoryReaderOptions options = {});

  /// \brief Returns the next complete trajectory, nullopt at clean end of
  /// stream, or an error Status on malformed input.
  ///
  /// After an error or end of stream, further calls return the same
  /// terminal state.
  Result<std::optional<Trajectory>> Next();

  /// Lines consumed so far (including comments and blanks).
  size_t lines_read() const { return lines_read_; }
  /// Sample records parsed so far.
  size_t records_read() const { return records_read_; }
  /// Complete trajectories returned so far.
  size_t trajectories_read() const { return trajectories_read_; }

 private:
  // Consumes one buffered line; sets *completed when a trajectory closed.
  Status ConsumeLine(std::string_view line, std::optional<Trajectory>* completed);
  // Pulls the next chunk into buffer_; false at end of stream.
  bool Refill();

  std::istream& in_;
  TrajectoryReaderOptions options_;
  std::string buffer_;    // unconsumed bytes; scan_ marks the parse frontier
  size_t scan_ = 0;
  bool eof_ = false;
  bool done_ = false;
  Status error_ = Status::OK();
  Trajectory current_;
  bool has_current_ = false;
  size_t lines_read_ = 0;
  size_t records_read_ = 0;
  size_t trajectories_read_ = 0;
};

/// \brief Drains `in` into a Dataset via the incremental reader. This is
/// the engine behind the CLIs' `--input -` mode. (LoadDatasetCsv keeps its
/// own loop over the shared ParseCsvRecord: traj/ must not depend on
/// stream/; stream_ingest_test locks the two paths' equivalence.)
Result<Dataset> ReadDatasetFromStream(
    std::istream& in, TrajectoryReaderOptions options = {});

/// Longest accepted feed id, in bytes.
inline constexpr size_t kMaxFeedIdBytes = 128;

/// \brief True when `feed` may name a feed: 1 to kMaxFeedIdBytes bytes of
/// [A-Za-z0-9._-], not starting with '.'. Feed ids become output file
/// names (`frt_serve --output-dir`) and `frt_feed` metrics fields, so
/// every place an id enters the process — frame decode, the multi-feed
/// CSV, --input NAME= — rejects anything else.
bool IsValidFeedId(std::string_view feed);

}  // namespace frt

#endif  // FRT_STREAM_INGEST_H_
