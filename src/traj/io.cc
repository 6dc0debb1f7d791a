#include "traj/io.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/strings.h"

namespace frt {

Result<std::optional<CsvRecord>> ParseCsvRecord(std::string_view line,
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
  // strtod accepts nan/inf/infinity; one such point would poison the
  // grid region and every distance of the batch it lands in.
  if (!std::isfinite(record.p.x) || !std::isfinite(record.p.y)) {
    return Status::IOError("line " + std::to_string(lineno) +
                           ": non-finite coordinate");
  }
  FRT_ASSIGN_OR_RETURN(record.t, ParseInt64(fields[3]));
  return std::optional<CsvRecord>(record);
}

void WriteTrajectoryCsv(const Trajectory& trajectory, std::ostream& out,
                        std::string_view line_prefix) {
  char buf[160];
  for (const auto& tp : trajectory.points()) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 ",%.3f,%.3f,%" PRId64 "\n",
                  trajectory.id(), tp.p.x, tp.p.y, tp.t);
    if (!line_prefix.empty()) out << line_prefix;
    out << buf;
  }
}

Status WriteDatasetCsv(const Dataset& dataset, std::ostream& out) {
  out << "# traj_id,x,y,t\n";
  for (const auto& t : dataset.trajectories()) WriteTrajectoryCsv(t, out);
  out.flush();
  if (!out.good()) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  if (auto st = WriteDatasetCsv(dataset, out); !st.ok()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<Dataset> LoadDatasetCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  // Same grouping contract as stream/ingest.h's TrajectoryReader (which
  // must not be called from this lower layer); equivalence of the two
  // paths is locked by stream_ingest_test.
  Dataset dataset;
  Trajectory current;
  bool has_current = false;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    FRT_ASSIGN_OR_RETURN(const std::optional<CsvRecord> record,
                         ParseCsvRecord(line, lineno));
    if (!record.has_value()) continue;
    if (!has_current) {
      current = Trajectory(record->id);
      has_current = true;
    } else if (current.id() != record->id) {
      FRT_RETURN_IF_ERROR(dataset.Add(std::move(current)));
      current = Trajectory(record->id);
    }
    current.Append(record->p, record->t);
  }
  if (has_current && !current.empty()) {
    FRT_RETURN_IF_ERROR(dataset.Add(std::move(current)));
  }
  return dataset;
}

}  // namespace frt
