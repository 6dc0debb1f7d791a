#include "traj/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/strings.h"

namespace frt {

Result<std::optional<CsvRecord>> ParseCsvRecord(std::string_view line,
                                                size_t lineno) {
  const std::string_view stripped = StripAsciiWhitespace(line);
  if (stripped.empty() || stripped[0] == '#') return std::optional<CsvRecord>();
  // Cut the line in place; a wrong field count is reported before any
  // field is parsed.
  std::string_view fields[4];
  size_t count = 0;
  size_t start = 0;
  for (;;) {
    const size_t comma = stripped.find(',', start);
    const std::string_view field = stripped.substr(start, comma - start);
    if (count < 4) fields[count] = field;
    ++count;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (count != 4) {
    return Status::IOError("line " + std::to_string(lineno) +
                           ": expected 4 fields, got " +
                           std::to_string(count));
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
  // Longest row body: two int64s (20 chars each), two "%.3f" doubles (a
  // sign, 309 integer digits, '.', 3 decimals) and 4 separators.
  constexpr size_t kMaxRow = 2 * 20 + 2 * (1 + 309 + 1 + 3) + 4;
  // Reused across calls, so a warmed-up writer does not allocate.
  thread_local std::string buf;
  size_t used = 0;
  for (const auto& tp : trajectory.points()) {
    const size_t need = used + line_prefix.size() + kMaxRow;
    if (buf.size() < need) buf.resize(std::max(need, 2 * buf.size()));
    char* p = buf.data() + used;
    char* const last = buf.data() + buf.size();
    p = std::copy(line_prefix.begin(), line_prefix.end(), p);
    p = std::to_chars(p, last, trajectory.id()).ptr;
    *p++ = ',';
    // Fixed notation with precision 3 is "%.3f": the exact binary value
    // correctly rounded, ties to even, "-0.000" for negative zero.
    p = std::to_chars(p, last, tp.p.x, std::chars_format::fixed, 3).ptr;
    *p++ = ',';
    p = std::to_chars(p, last, tp.p.y, std::chars_format::fixed, 3).ptr;
    *p++ = ',';
    p = std::to_chars(p, last, tp.t).ptr;
    *p++ = '\n';
    used = static_cast<size_t>(p - buf.data());
  }
  out.write(buf.data(), static_cast<std::streamsize>(used));
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
