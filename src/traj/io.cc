#include "traj/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"

namespace frt {
namespace {

// Writes x as "%.3f" does. For finite |x| < 2^53 the digits come from
// integers alone: x = m * 2^e with an integer m < 2^53 and e <= 0, so
// |x| * 1000 = (1000 m) >> -e with 1000 m < 2^63, and rounding the
// shifted-out bits half to even gives q, the correctly rounded value of
// |x| * 1000; the row is q / 1000, '.', then q % 1000 in three digits. A
// negative x (-0.0 and tiny negatives included) keeps its '-'. Anything
// else goes to to_chars, which is also exact.
char* WriteFixed3(char* p, char* last, double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  // biased <= 1075 <=> |x| < 2^53 (and excludes inf/nan, biased == 2047).
  if (biased > 1075) {
    return std::to_chars(p, last, x, std::chars_format::fixed, 3).ptr;
  }
  const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  // Subnormals have no implicit bit and the exponent of biased == 1.
  const uint64_t m = biased == 0 ? fraction : fraction | (uint64_t{1} << 52);
  const int shift = 1075 - (biased == 0 ? 1 : biased);  // -e, in [0, 1074]
  const uint64_t scaled = m * 1000;
  uint64_t q = scaled;  // shift == 0: x is an integer
  if (shift >= 64) {
    q = 0;  // scaled / 2^shift < 2^63 / 2^64 = 1/2
  } else if (shift > 0) {
    q = scaled >> shift;
    const uint64_t rest = scaled & ((uint64_t{1} << shift) - 1);
    const uint64_t half = uint64_t{1} << (shift - 1);
    if (rest > half || (rest == half && (q & 1) != 0)) ++q;
  }
  if ((bits >> 63) != 0) *p++ = '-';
  p = std::to_chars(p, last, q / 1000).ptr;
  const unsigned frac = static_cast<unsigned>(q % 1000);
  p[0] = '.';
  p[1] = static_cast<char>('0' + frac / 100);
  p[2] = static_cast<char>('0' + frac / 10 % 10);
  p[3] = static_cast<char>('0' + frac % 10);
  return p + 4;
}

// A dataset row: every record belongs to feed "".
Result<std::optional<CsvRecord>> ParseDatasetRow(std::string_view line,
                                                 size_t lineno,
                                                 std::string_view* /*feed*/) {
  return ParseCsvRecord(line, lineno);
}

}  // namespace

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

CsvTrajectoryReader::CsvTrajectoryReader(std::istream& in,
                                         CsvRowParser parse,
                                         TrajectoryReaderOptions options)
    : in_(in),
      parse_(parse),
      chunk_bytes_(std::max<size_t>(options.chunk_bytes, 1)) {}

bool CsvTrajectoryReader::Refill() {
  if (eof_) return false;
  // Compact the consumed prefix before growing the buffer, so memory stays
  // bounded by one chunk plus one partial line.
  if (scan_ > 0) {
    buffer_.erase(0, scan_);
    scan_ = 0;
  }
  // Block for the first byte only, then take whatever else the stream
  // already has buffered (capped at chunk_bytes). istream::read(n) would
  // instead block until all n bytes arrive, which on a slow live feed
  // (frt_stream --input - on a pipe) could stall for minutes with whole
  // windows' worth of data already parseable.
  const int ch = in_.get();
  if (ch == std::istream::traits_type::eof()) {
    eof_ = true;
    return false;
  }
  buffer_.push_back(static_cast<char>(ch));
  const std::streamsize avail = in_.rdbuf()->in_avail();
  if (avail > 0 && chunk_bytes_ > 1) {
    const size_t want = std::min(static_cast<size_t>(avail), chunk_bytes_ - 1);
    const size_t old_size = buffer_.size();
    buffer_.resize(old_size + want);
    in_.read(&buffer_[old_size], static_cast<std::streamsize>(want));
    buffer_.resize(old_size + static_cast<size_t>(in_.gcount()));
  }
  return true;
}

bool CsvTrajectoryReader::NextLine(std::string_view* line) {
  size_t newline = buffer_.find('\n', scan_);
  while (newline == std::string::npos && Refill()) {
    newline = buffer_.find('\n', scan_);
  }
  if (newline == std::string::npos) {
    // A failed read ends the bytes too, but not the input: finishing
    // here would silently shorten the release.
    if (in_.bad()) {
      error_ = Status::IOError("read failed after line " +
                               std::to_string(lines_read_));
      return false;
    }
    // End of stream: the remaining bytes are one final unterminated line.
    if (scan_ == buffer_.size()) return false;
    newline = buffer_.size();
  }
  *line = std::string_view(buffer_.data() + scan_, newline - scan_);
  scan_ = std::min(newline + 1, buffer_.size());
  ++lines_read_;
  return true;
}

Result<std::optional<FeedTrajectory>> CsvTrajectoryReader::Next() {
  if (!error_.ok()) return error_;
  // Covers both the read wait and the parse work per trajectory.
  obs::ScopedSpan span("ingest_parse", obs::SpanCategory::kIngest);
  std::string_view line;
  while (NextLine(&line)) {
    std::string_view feed;
    Result<std::optional<CsvRecord>> row = parse_(line, lines_read_, &feed);
    if (!row.ok()) return error_ = row.status();
    if (!row->has_value()) continue;  // comment or blank
    ++records_read_;
    const CsvRecord& record = **row;
    auto it = open_.find(feed);
    if (it == open_.end()) {
      it = open_.emplace(feed, Trajectory(record.id)).first;
      order_.push_back(it->first);
    }
    std::optional<Trajectory> closed;
    if (it->second.id() != record.id) {
      closed = std::exchange(it->second, Trajectory(record.id));
    }
    it->second.Append(record.p, record.t);
    if (closed.has_value()) {
      ++trajectories_read_;
      return std::optional<FeedTrajectory>(
          FeedTrajectory{it->first, std::move(*closed)});
    }
  }
  if (!error_.ok()) return error_;
  // End of stream: every feed's open trajectory, in first-seen order.
  if (flushed_ == order_.size()) return std::optional<FeedTrajectory>();
  const std::string& feed = order_[flushed_++];
  ++trajectories_read_;
  return std::optional<FeedTrajectory>(
      FeedTrajectory{feed, std::exchange(open_.find(feed)->second, {})});
}

TrajectoryReader::TrajectoryReader(std::istream& in,
                                   TrajectoryReaderOptions options)
    : reader_(in, &ParseDatasetRow, options) {}

Result<std::optional<Trajectory>> TrajectoryReader::Next() {
  FRT_ASSIGN_OR_RETURN(std::optional<FeedTrajectory> next, reader_.Next());
  if (!next.has_value()) return std::optional<Trajectory>();
  return std::optional<Trajectory>(std::move(next->trajectory));
}

Result<Dataset> ReadDatasetFromStream(std::istream& in,
                                      TrajectoryReaderOptions options) {
  TrajectoryReader reader(in, options);
  Dataset dataset;
  for (;;) {
    FRT_ASSIGN_OR_RETURN(std::optional<Trajectory> next, reader.Next());
    if (!next.has_value()) break;
    FRT_RETURN_IF_ERROR(dataset.Add(std::move(*next)));
  }
  return dataset;
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
    // "%.3f": the exact binary value correctly rounded, ties to even,
    // "-0.000" for negative zero.
    p = WriteFixed3(p, last, tp.p.x);
    *p++ = ',';
    p = WriteFixed3(p, last, tp.p.y);
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
  Result<Dataset> dataset = ReadDatasetFromStream(in);
  // A failed read (e.g. of a directory) names the file.
  if (!in.bad()) return dataset;
  return Status::IOError(dataset.status().message() + ": " + path);
}

}  // namespace frt
