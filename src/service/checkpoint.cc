#include "service/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"

namespace frt {

namespace {

constexpr char kMagic[] = "frt-checkpoint";
constexpr int kVersion = 1;
constexpr char kSnapshotFile[] = "budget_ledgers.ckpt";

/// %.17g survives a text round trip bit-exactly for every finite double.
std::string FormatDouble(double v) { return StrFormat("%.17g", v); }

Status Corrupt(const std::string& detail) {
  return Status::IOError("corrupt checkpoint: " + detail);
}

/// Pops the next space-delimited token off `line`; empty when exhausted.
std::string_view NextToken(std::string_view* line) {
  const size_t space = line->find(' ');
  std::string_view token;
  if (space == std::string_view::npos) {
    token = *line;
    *line = std::string_view();
  } else {
    token = line->substr(0, space);
    *line = line->substr(space + 1);
  }
  return token;
}

Result<uint64_t> ParseU64Token(std::string_view token,
                               const std::string& what) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size() ||
      token.empty()) {
    return Corrupt("malformed " + what + " '" + std::string(token) + "'");
  }
  return value;
}

Result<double> ParseDoubleToken(std::string_view token,
                                const std::string& what) {
  Result<double> parsed = ParseDouble(token);
  if (!parsed.ok()) {
    return Corrupt("malformed " + what + " '" + std::string(token) + "'");
  }
  return *parsed;
}

}  // namespace

std::string EncodeCheckpoint(const ServiceCheckpoint& checkpoint) {
  std::ostringstream body;
  body << kMagic << ' ' << kVersion << '\n';
  body << "seq " << checkpoint.sequence << '\n';
  body << "budgets " << FormatDouble(checkpoint.total_budget) << ' '
       << FormatDouble(checkpoint.per_object_budget) << '\n';
  body << "feeds " << checkpoint.feeds.size() << '\n';
  for (const FeedCheckpoint& feed : checkpoint.feeds) {
    // The name goes LAST so feed ids containing spaces stay parseable;
    // names cannot contain newlines (they come from line-oriented input).
    body << "feed " << feed.generations << ' ' << feed.windows_closed << ' '
         << FormatDouble(feed.wholesale_spent) << ' '
         << FormatDouble(feed.per_object_floor) << ' ' << feed.feed << '\n';
  }
  std::string text = body.str();
  text += StrFormat("checksum %016llx\n",
                    static_cast<unsigned long long>(Fnv1a64(text)));
  return text;
}

Result<ServiceCheckpoint> DecodeCheckpoint(std::string_view text) {
  // The checksum line authenticates every byte before it; locate it first
  // so truncation anywhere (including mid-checksum) is caught up front.
  if (text.empty() || text.back() != '\n') {
    return Corrupt("truncated (missing trailing newline)");
  }
  const size_t last_line_start = text.rfind('\n', text.size() - 2);
  const size_t checksum_at =
      last_line_start == std::string_view::npos ? 0 : last_line_start + 1;
  std::string_view checksum_line =
      text.substr(checksum_at, text.size() - checksum_at - 1);
  if (NextToken(&checksum_line) != "checksum") {
    return Corrupt("truncated (missing checksum line)");
  }
  const std::string_view checksum_token = NextToken(&checksum_line);
  uint64_t expected = 0;
  const auto [checksum_end, checksum_ec] =
      std::from_chars(checksum_token.data(),
                      checksum_token.data() + checksum_token.size(),
                      expected, 16);
  if (checksum_ec != std::errc() ||
      checksum_end != checksum_token.data() + checksum_token.size() ||
      checksum_token.size() != 16 || !checksum_line.empty()) {
    return Corrupt("malformed checksum line");
  }
  const std::string_view body = text.substr(0, checksum_at);
  if (Fnv1a64(body) != expected) {
    return Corrupt("checksum mismatch (torn or tampered snapshot)");
  }

  ServiceCheckpoint checkpoint;
  std::unordered_set<std::string> seen;
  size_t declared_feeds = 0;
  int line_no = 0;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t eol = body.find('\n', pos);
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      std::string_view magic = NextToken(&line);
      FRT_ASSIGN_OR_RETURN(const uint64_t version,
                           ParseU64Token(NextToken(&line), "version"));
      if (magic != kMagic || !line.empty()) {
        return Corrupt("bad magic '" + std::string(magic) + "'");
      }
      if (version != static_cast<uint64_t>(kVersion)) {
        return Corrupt("unsupported version " + std::to_string(version));
      }
      continue;
    }
    const std::string_view key = NextToken(&line);
    if (key == "seq") {
      FRT_ASSIGN_OR_RETURN(checkpoint.sequence,
                           ParseU64Token(NextToken(&line), "sequence"));
    } else if (key == "budgets") {
      FRT_ASSIGN_OR_RETURN(
          checkpoint.total_budget,
          ParseDoubleToken(NextToken(&line), "total budget"));
      FRT_ASSIGN_OR_RETURN(
          checkpoint.per_object_budget,
          ParseDoubleToken(NextToken(&line), "per-object budget"));
    } else if (key == "feeds") {
      FRT_ASSIGN_OR_RETURN(declared_feeds,
                           ParseU64Token(NextToken(&line), "feed count"));
    } else if (key == "feed") {
      FeedCheckpoint feed;
      FRT_ASSIGN_OR_RETURN(feed.generations,
                           ParseU64Token(NextToken(&line), "generations"));
      FRT_ASSIGN_OR_RETURN(
          feed.windows_closed,
          ParseU64Token(NextToken(&line), "windows_closed"));
      FRT_ASSIGN_OR_RETURN(
          feed.wholesale_spent,
          ParseDoubleToken(NextToken(&line), "wholesale spend"));
      FRT_ASSIGN_OR_RETURN(
          feed.per_object_floor,
          ParseDoubleToken(NextToken(&line), "per-object floor"));
      feed.feed = std::string(line);  // remainder, spaces allowed
      if (feed.feed.empty()) return Corrupt("feed entry without a name");
      if (feed.wholesale_spent < 0.0 || feed.per_object_floor < 0.0) {
        return Corrupt("negative spend for feed '" + feed.feed + "'");
      }
      if (!seen.insert(feed.feed).second) {
        return Corrupt("duplicate feed '" + feed.feed + "'");
      }
      checkpoint.feeds.push_back(std::move(feed));
    } else {
      return Corrupt("unknown record '" + std::string(key) + "'");
    }
    if (!line.empty() && key != "feed") {
      return Corrupt("trailing garbage on '" + std::string(key) + "' line");
    }
  }
  if (line_no < 4) return Corrupt("truncated header");
  if (checkpoint.feeds.size() != declared_feeds) {
    return Corrupt("feed count mismatch: declared " +
                   std::to_string(declared_feeds) + ", found " +
                   std::to_string(checkpoint.feeds.size()));
  }
  return checkpoint;
}

CheckpointStore::CheckpointStore(std::string dir)
    : dir_(std::move(dir)),
      path_(dir_ + "/" + kSnapshotFile),
      tmp_path_(path_ + ".tmp") {}

Result<CheckpointStore> CheckpointStore::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint state dir must not be empty");
  }
  // mkdir -p: create every missing component so `--state-dir a/b/c` works
  // on first boot.
  for (size_t slash = dir.find('/', 1); slash != std::string::npos;
       slash = dir.find('/', slash + 1)) {
    const std::string prefix = dir.substr(0, slash);
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create state dir " + prefix + ": " +
                             std::strerror(errno));
    }
  }
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create state dir " + dir + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("state dir " + dir + " is not a directory");
  }
  return CheckpointStore(dir);
}

Result<std::optional<ServiceCheckpoint>> CheckpointStore::Load() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT) return std::optional<ServiceCheckpoint>();
    return Status::IOError("cannot read checkpoint " + path_ + ": " +
                           std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed on checkpoint " + path_);
  }
  FRT_ASSIGN_OR_RETURN(ServiceCheckpoint checkpoint,
                       DecodeCheckpoint(buffer.str()));
  return std::optional<ServiceCheckpoint>(std::move(checkpoint));
}

Status CheckpointStore::Write(const ServiceCheckpoint& checkpoint) {
  obs::ScopedSpan span("checkpoint_write", obs::SpanCategory::kDurability);
  const std::string text = EncodeCheckpoint(checkpoint);
  // Write-to-temp + fsync + rename + directory fsync: the visible snapshot
  // is always a complete old or complete new image, never a torn write.
  const int fd = ::open(tmp_path_.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + tmp_path_ + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path_.c_str());
      return Status::IOError("write failed on " + tmp_path_ + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  // fdatasync: data plus the size metadata needed to read it back is all
  // the rename depends on; the temp file's other metadata is irrelevant.
  const auto fsync_start = std::chrono::steady_clock::now();
  if (::fdatasync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp_path_.c_str());
    return Status::IOError("fdatasync failed on " + tmp_path_ + ": " + err);
  }
  obs::EmitSpan("fsync", obs::SpanCategory::kDurability, {}, fsync_start,
                std::chrono::steady_clock::now());
  if (::close(fd) != 0) {
    ::unlink(tmp_path_.c_str());
    return Status::IOError("close failed on " + tmp_path_ + ": " +
                           std::strerror(errno));
  }
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_path_.c_str());
    return Status::IOError("rename to " + path_ + " failed: " + err);
  }
  // Make the rename itself durable. A failure here means the snapshot
  // may vanish on power loss even though the rename is visible — the
  // caller must treat the write as NOT durable.
  return SyncDir();
}

Status CheckpointStore::SyncDir() const {
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return Status::IOError("cannot open state dir " + dir_ +
                           " for fsync: " + std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(dir_fd);
    return Status::IOError("fsync failed on state dir " + dir_ + ": " + err);
  }
  if (::close(dir_fd) != 0) {
    return Status::IOError("close failed on state dir " + dir_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace frt
