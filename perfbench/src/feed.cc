// frt_bench feed — the benchmark's load generator and output timestamper.
//
//   frt_bench feed --start-ns T0 --copy FILE --result FILE
//       [--input FEEDS.csv --schedule SCHED]
//
// stdin is the CLI's published output. A reader thread keeps it in memory
// (written to --copy once the CLI has exited, so the benchmark's own disk
// writes never compete with the CLI's fsyncs) and stamps the first row of
// every trajectory (keyed by the line's leading `feed,traj_id` or `traj_id`
// field) with CLOCK_MONOTONIC.
//
// With --input/--schedule the main thread is an open-loop generator: at
// T0 + due_us[i] it releases trajectory i's rows of the multi-feed CSV to a
// writer thread that drains released rows into stdout (the CLI's stdin).
// A CLI that stops reading blocks only the writer, never the schedule.
// Publication latency is first-row time minus due time, so a stall is
// charged to every trajectory that was due during it. Without a schedule
// every trajectory is due at T0 (closed loop: the CLI reads its input file
// itself and T0 is its spawn time).
//
// The result file gets one JSON object: latency p50/p99/max over the
// trajectories seen, the sample count, and the generator's lateness (send
// start minus due time, p99 and max) — the open-loop honesty check.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_tool.h"

namespace frt::bench {
namespace {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The `feed,traj_id` (multi-feed) or `traj_id` prefix of a CSV row. Rows
/// are `[feed,]id,x,y,t`, so the key is everything before the third comma
/// from the end.
std::string RowKey(const char* begin, const char* end) {
  int commas = 0;
  for (const char* p = end; p > begin; --p) {
    if (p[-1] == ',' && ++commas == 3) return std::string(begin, p - 1);
  }
  return std::string();
}

/// Nearest-rank percentile of an ascending vector (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

struct ReaderState {
  std::unordered_map<std::string, int64_t> first_seen_ns;
  std::string output;
  bool io_error = false;
};

void ReadOutput(ReaderState* state) {
  std::vector<char> buf(1 << 20);
  std::string carry;
  std::string last_key;
  for (;;) {
    const ssize_t n = read(STDIN_FILENO, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n < 0) state->io_error = true;
      break;
    }
    const int64_t now = NowNs();
    state->output.append(buf.data(), static_cast<size_t>(n));
    carry.append(buf.data(), static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = carry.find('\n'); nl != std::string::npos;
         nl = carry.find('\n', start)) {
      const char* line = carry.data() + start;
      const char* line_end = carry.data() + nl;
      start = nl + 1;
      if (line == line_end || *line == '#') continue;
      std::string key = RowKey(line, line_end);
      if (key == last_key) continue;
      state->first_seen_ns.emplace(key, now);
      last_key = std::move(key);
    }
    carry.erase(0, start);
  }
}

/// Rows released by the schedule, drained into stdout by the writer.
struct Outbox {
  std::mutex mu;
  std::condition_variable cv;
  size_t released = 0;  ///< bytes of `rows` the schedule has released
  bool done = false;    ///< the schedule released its last trajectory
};

/// Writes released rows to stdout until the schedule is done and every
/// released byte is written; false on a write error (EPIPE when the CLI
/// died).
bool DrainOutbox(const std::string& rows, Outbox* box) {
  size_t written = 0;
  for (;;) {
    size_t target = 0;
    {
      std::unique_lock<std::mutex> lock(box->mu);
      box->cv.wait(lock, [&] { return box->released > written || box->done; });
      if (box->released == written) return true;  // done, all written
      target = box->released;
    }
    while (written < target) {
      const ssize_t w =
          write(STDOUT_FILENO, rows.data() + written, target - written);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<size_t>(w);
    }
  }
}

}  // namespace

int RunFeed(const Flags& flags) {
  // A CLI that dies mid-run must surface as a failed write, not kill the
  // generator before it reports.
  std::signal(SIGPIPE, SIG_IGN);
  bool ok = true;
  const int64_t start_ns = flags.Int("start-ns", 0, &ok);
  const std::string copy_path = flags.Str("copy");
  const std::string result_path = flags.Str("result");
  const std::string input_path = flags.Str("input");
  const std::string schedule_path = flags.Str("schedule");
  if (!ok || start_ns <= 0 || copy_path.empty() || result_path.empty() ||
      input_path.empty() != schedule_path.empty()) {
    std::fprintf(stderr,
                 "usage: frt_bench feed --start-ns T0 --copy FILE --result "
                 "FILE [--input FEEDS.csv --schedule SCHED]\n");
    return 2;
  }
  // Key (first row prefix) and due offset of every scheduled trajectory,
  // plus the rows to send.
  std::string rows;
  std::vector<std::string> keys;
  std::vector<int64_t> due_us;
  std::vector<size_t> sizes;
  if (!input_path.empty()) {
    std::ifstream in(input_path, std::ios::binary);
    std::ifstream sched(schedule_path);
    if (!in.is_open() || !sched.is_open()) {
      std::fprintf(stderr, "frt_bench feed: cannot open inputs\n");
      return 1;
    }
    std::ostringstream all;
    all << in.rdbuf();
    rows = all.str();
    int64_t due = 0;
    size_t size = 0;
    size_t offset = 0;
    while (sched >> due >> size) {
      if (size == 0 || size > rows.size() - offset) {
        std::fprintf(stderr, "frt_bench feed: schedule exceeds input\n");
        return 1;
      }
      const char* first = rows.data() + offset;
      const char* nl =
          static_cast<const char*>(std::memchr(first, '\n', size));
      keys.push_back(RowKey(first, nl != nullptr ? nl : first + size));
      due_us.push_back(due);
      sizes.push_back(size);
      offset += size;
    }
  }

  ReaderState state;
  std::thread reader(ReadOutput, &state);

  Outbox box;
  bool send_ok = true;
  std::thread writer([&] { send_ok = DrainOutbox(rows, &box); });
  std::vector<double> lateness_ms;
  lateness_ms.reserve(due_us.size());
  size_t offset = 0;
  for (size_t i = 0; i < due_us.size(); ++i) {
    const int64_t due_ns = start_ns + due_us[i] * 1000;
    SleepUntilNs(due_ns);
    lateness_ms.push_back(static_cast<double>(NowNs() - due_ns) / 1e6);
    offset += sizes[i];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      box.released = offset;
    }
    box.cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.done = true;
  }
  box.cv.notify_one();
  writer.join();
  // End of input: the CLI drains, publishes its last windows and exits,
  // which closes our stdin and ends the reader.
  close(STDOUT_FILENO);
  reader.join();
  const bool send_error = !send_ok;
  {
    std::ofstream copy(copy_path, std::ios::binary | std::ios::trunc);
    copy << state.output;
    copy.flush();
    if (!copy.good()) state.io_error = true;
  }

  // Latency per trajectory: first published row minus due time. Closed
  // loop (no schedule): every trajectory in the output was due at T0.
  std::vector<double> latency_ms;
  size_t missing = 0;
  if (!keys.empty()) {
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = state.first_seen_ns.find(keys[i]);
      if (it == state.first_seen_ns.end()) {
        ++missing;
        continue;
      }
      latency_ms.push_back(
          static_cast<double>(it->second - (start_ns + due_us[i] * 1000)) /
          1e6);
    }
  } else {
    for (const auto& [key, seen] : state.first_seen_ns) {
      latency_ms.push_back(static_cast<double>(seen - start_ns) / 1e6);
    }
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(lateness_ms.begin(), lateness_ms.end());

  JsonObject result;
  result.Bool("ok", !send_error && !state.io_error);
  result.Int("sent", static_cast<int64_t>(lateness_ms.size()));
  result.Int("seen", static_cast<int64_t>(state.first_seen_ns.size()));
  result.Int("missing", static_cast<int64_t>(missing));
  result.Int("samples", static_cast<int64_t>(latency_ms.size()));
  result.Int("bytes_out", static_cast<int64_t>(state.output.size()));
  result.Num("latency_p50_ms", Percentile(latency_ms, 0.50));
  result.Num("latency_p99_ms", Percentile(latency_ms, 0.99));
  result.Num("latency_max_ms", latency_ms.empty() ? 0.0 : latency_ms.back());
  result.Num("lateness_p99_ms", Percentile(lateness_ms, 0.99));
  result.Num("lateness_max_ms",
             lateness_ms.empty() ? 0.0 : lateness_ms.back());
  std::ofstream out(result_path, std::ios::trunc);
  out << result.Render() << '\n';
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "frt_bench feed: cannot write %s\n",
                 result_path.c_str());
    return 1;
  }
  return send_error || state.io_error ? 1 : 0;
}

}  // namespace frt::bench
