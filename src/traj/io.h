// Plain-text dataset I/O.
//
// Format: one CSV line per GPS sample, `traj_id,x,y,t`, sorted by
// (traj_id, position). Lines starting with '#' are comments. This mirrors
// the flat layout of public taxi datasets (T-Drive et al.) after projection.
//
// Every CSV input (file, pipe, stdin, multi-feed) is read by one chunked
// reader, CsvTrajectoryReader, given a row parser: TrajectoryReader is it
// with ParseCsvRecord, which ReadDatasetFromStream and LoadDatasetCsv
// drain; stream/ingest.h has the multi-feed row parser.
//
// Codec contract (tests/csv_codec_test.cc, tests/csv_mutation_test.cc,
// tests/golden_release_test.sh): the writer is byte-identical to
// snprintf("%" PRId64 ",%.3f,%.3f,%" PRId64 "\n") per sample; the parser
// reads fields with ParseInt64/ParseDouble (common/strings.h), so it
// accepts exactly what strtoll/strtod accept (ERANGE refused), with the
// same values and error texts. Neither path allocates per row once warm.

#ifndef FRT_TRAJ_IO_H_
#define FRT_TRAJ_IO_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace frt {

/// One parsed CSV sample line.
struct CsvRecord {
  TrajId id = -1;
  Point p;
  int64_t t = 0;
};

/// \brief Parses one line of the dataset format.
///
/// Returns nullopt for blank and comment lines. An error Status names
/// `lineno` for a wrong field count and for a non-finite (nan, inf) x or y,
/// which strtod would accept; a malformed field is ParseInt64's or
/// ParseDouble's error.
Result<std::optional<CsvRecord>> ParseCsvRecord(std::string_view line,
                                                size_t lineno);

/// Tuning knobs of the chunked reader.
struct TrajectoryReaderOptions {
  /// Upper bound on bytes pulled from the stream per refill. A refill
  /// blocks only until the first byte is available and then takes what the
  /// stream already has buffered, so live feeds are consumed as they
  /// arrive. Small values are useful in tests to exercise chunk boundaries
  /// inside lines; the default amortizes syscall cost.
  size_t chunk_bytes = 1 << 16;
};

/// Parses one row like ParseCsvRecord, and points `*feed` into the line
/// at the feed the row belongs to (left "" in a single-feed CSV).
using CsvRowParser = Result<std::optional<CsvRecord>> (*)(
    std::string_view line, size_t lineno, std::string_view* feed);

/// One complete trajectory and the feed it belongs to.
struct FeedTrajectory {
  std::string feed;
  Trajectory trajectory;
};

/// \brief The one chunked CSV reader: pulls the stream in bounded chunks,
/// parses each line with `parse`, and groups consecutive same-id rows of a
/// feed into one trajectory (feeds may interleave). It holds one chunk,
/// one partial line and each feed's open trajectory, never the input.
class CsvTrajectoryReader {
 public:
  /// The stream must outlive the reader. Reading starts at the stream's
  /// current position.
  CsvTrajectoryReader(std::istream& in, CsvRowParser parse,
                      TrajectoryReaderOptions options = {});

  /// \brief The next complete trajectory: a feed's is complete when that
  /// feed's next id starts, and at end of stream the open ones follow in
  /// first-seen feed order, then nullopt. A failed read is
  /// IOError("read failed after line N"). Errors and the end are sticky.
  Result<std::optional<FeedTrajectory>> Next();

  /// Feeds with at least one row so far, in first-seen order.
  const std::vector<std::string>& feeds() const { return order_; }
  /// Lines (comments and blanks included), records and trajectories so far.
  size_t lines_read() const { return lines_read_; }
  size_t records_read() const { return records_read_; }
  size_t trajectories_read() const { return trajectories_read_; }

 private:
  // The next line without its '\n'; false at end of stream or when a read
  // failed (error_ set).
  bool NextLine(std::string_view* line);
  // Pulls the next chunk into buffer_; false at end of stream.
  bool Refill();

  std::istream& in_;
  CsvRowParser parse_;
  size_t chunk_bytes_;
  std::string buffer_;  // unconsumed bytes; scan_ marks the parse frontier
  size_t scan_ = 0;
  bool eof_ = false;
  Status error_ = Status::OK();
  std::map<std::string, Trajectory, std::less<>> open_;  // feed -> open
  std::vector<std::string> order_;  // open_'s feeds, first-seen order
  size_t flushed_ = 0;              // order_ entries drained at the end
  size_t lines_read_ = 0;
  size_t records_read_ = 0;
  size_t trajectories_read_ = 0;
};

/// \brief The dataset format (`traj_id,x,y,t`) through the chunked reader:
/// one complete trajectory per Next() call, same contract and errors.
class TrajectoryReader {
 public:
  explicit TrajectoryReader(std::istream& in,
                            TrajectoryReaderOptions options = {});

  Result<std::optional<Trajectory>> Next();

  size_t lines_read() const { return reader_.lines_read(); }
  size_t records_read() const { return reader_.records_read(); }
  size_t trajectories_read() const { return reader_.trajectories_read(); }

 private:
  CsvTrajectoryReader reader_;
};

/// Drains `in` into a Dataset through a TrajectoryReader.
Result<Dataset> ReadDatasetFromStream(std::istream& in,
                                      TrajectoryReaderOptions options = {});

/// Writes one trajectory as sample lines (no header), byte-identical to
/// "%" PRId64 ",%.3f,%.3f,%" PRId64 "\n" per sample, with one out.write per
/// trajectory. The single source of the record format for batch,
/// streaming, and multi-feed serialization. `line_prefix` is prepended
/// verbatim to every record line — the multi-feed format passes "feed," to
/// tag each sample with its feed id.
void WriteTrajectoryCsv(const Trajectory& trajectory, std::ostream& out,
                        std::string_view line_prefix = {});

/// Writes `dataset` in CSV form (header comment + one line per sample).
Status WriteDatasetCsv(const Dataset& dataset, std::ostream& out);

/// Writes `dataset` to `path` in CSV form. Overwrites existing files.
Status SaveDatasetCsv(const Dataset& dataset, const std::string& path);

/// Reads a dataset previously written by SaveDatasetCsv (or any file in the
/// same format) with ReadDatasetFromStream. Points of a trajectory must be
/// contiguous lines.
Result<Dataset> LoadDatasetCsv(const std::string& path);

}  // namespace frt

#endif  // FRT_TRAJ_IO_H_
