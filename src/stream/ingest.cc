#include "stream/ingest.h"

#include <algorithm>
#include <istream>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "traj/io.h"

namespace frt {

TrajectoryReader::TrajectoryReader(std::istream& in,
                                   TrajectoryReaderOptions options)
    : in_(in), options_(options) {
  if (options_.chunk_bytes == 0) options_.chunk_bytes = 1;
}

bool TrajectoryReader::Refill() {
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
  if (avail > 0 && options_.chunk_bytes > 1) {
    const size_t want = std::min(static_cast<size_t>(avail),
                                 options_.chunk_bytes - 1);
    const size_t old_size = buffer_.size();
    buffer_.resize(old_size + want);
    in_.read(&buffer_[old_size], static_cast<std::streamsize>(want));
    buffer_.resize(old_size + static_cast<size_t>(in_.gcount()));
  }
  return true;
}

Status TrajectoryReader::ConsumeLine(std::string_view line,
                                     std::optional<Trajectory>* completed) {
  ++lines_read_;
  FRT_ASSIGN_OR_RETURN(const std::optional<CsvRecord> record,
                       ParseCsvRecord(line, lines_read_));
  if (!record.has_value()) return Status::OK();  // comment or blank
  ++records_read_;
  if (has_current_ && current_.id() != record->id) {
    *completed = std::move(current_);
    current_ = Trajectory(record->id);
  } else if (!has_current_) {
    current_ = Trajectory(record->id);
    has_current_ = true;
  }
  current_.Append(record->p, record->t);
  return Status::OK();
}

Result<std::optional<Trajectory>> TrajectoryReader::Next() {
  if (!error_.ok()) return error_;
  if (done_) return std::optional<Trajectory>();
  // Covers both the read wait and the parse work per trajectory.
  obs::ScopedSpan span("ingest_parse", obs::SpanCategory::kIngest);
  for (;;) {
    // Drain complete lines already buffered.
    size_t newline = buffer_.find('\n', scan_);
    while (newline != std::string::npos) {
      const std::string_view line(buffer_.data() + scan_, newline - scan_);
      scan_ = newline + 1;
      std::optional<Trajectory> completed;
      if (Status st = ConsumeLine(line, &completed); !st.ok()) {
        error_ = st;
        return error_;
      }
      if (completed.has_value()) {
        ++trajectories_read_;
        return completed;
      }
      newline = buffer_.find('\n', scan_);
    }
    if (Refill()) continue;
    // A failed read ends the bytes too, but not the input: finishing here
    // would silently shorten the release.
    if (in_.bad()) {
      error_ = Status::IOError("read failed after line " +
                               std::to_string(lines_read_));
      return error_;
    }
    // End of stream: the remaining bytes are one final unterminated line.
    if (scan_ < buffer_.size()) {
      const std::string_view line(buffer_.data() + scan_,
                                  buffer_.size() - scan_);
      scan_ = buffer_.size();
      std::optional<Trajectory> completed;
      if (Status st = ConsumeLine(line, &completed); !st.ok()) {
        error_ = st;
        return error_;
      }
      if (completed.has_value()) {
        ++trajectories_read_;
        return completed;
      }
    }
    done_ = true;
    if (has_current_ && !current_.empty()) {
      has_current_ = false;
      ++trajectories_read_;
      return std::optional<Trajectory>(std::move(current_));
    }
    return std::optional<Trajectory>();
  }
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

bool IsValidFeedId(std::string_view feed) {
  if (feed.empty() || feed.size() > kMaxFeedIdBytes || feed[0] == '.') {
    return false;
  }
  return std::all_of(feed.begin(), feed.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

}  // namespace frt
