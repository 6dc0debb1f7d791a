// Plain-text dataset I/O.
//
// Format: one CSV line per GPS sample, `traj_id,x,y,t`, sorted by
// (traj_id, position). Lines starting with '#' are comments. This mirrors
// the flat layout of public taxi datasets (T-Drive et al.) after projection.
//
// The line-level parser (ParseCsvRecord) is shared with the streaming
// ingest path (stream/ingest.h), which assembles trajectories incrementally
// from chunked reads; LoadDatasetCsv is the one-shot convenience built on
// the same machinery.
//
// Codec contract (tests/csv_codec_test.cc, tests/csv_mutation_test.cc,
// tests/golden_release_test.sh): the writer is byte-identical to
// snprintf("%" PRId64 ",%.3f,%.3f,%" PRId64 "\n") per sample; the parser
// reads fields with ParseInt64/ParseDouble (common/strings.h), so it
// accepts exactly what strtoll/strtod accept (ERANGE refused), with the
// same values and error texts. Neither path allocates per row once warm.

#ifndef FRT_TRAJ_IO_H_
#define FRT_TRAJ_IO_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "traj/dataset.h"

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
/// same format). Points of a trajectory must be contiguous lines.
Result<Dataset> LoadDatasetCsv(const std::string& path);

}  // namespace frt

#endif  // FRT_TRAJ_IO_H_
