// bench_serve — serving-layer studies that nothing else measures
// (google-benchmark). tools/bench_report.py records them into
// BENCH_serve.json:
//
//   ServeCheckpoint           an 8-feed workload of 100-trajectory windows
//                             with durable budget ledgers off, then on
//                             (write-ahead snapshot + fsync before every
//                             publish flush): checkpoint_throughput_ratio
//                             is on/off throughput (claim: >= 0.9) and
//                             checkpoints_per_iter shows the durable half
//                             really checkpointed.
//   ServeAdminScrapeOverhead  a 16-feed workload with no admin listener,
//                             then scraped at 10 Hz (GET /metrics and GET
//                             /feedz in turn) over a Unix socket:
//                             admin_scrape_throughput_ratio is
//                             scraped/unscraped throughput (claim:
//                             >= 0.99 — handlers only read registry
//                             atomics and snapshot copies), plus
//                             scrapes_per_iter and failed_scrapes_per_iter.
//   DispatcherWakeup/N        N in {16,256,2048} dormant feeds each hold
//                             an armed (never-due) close deadline while
//                             one hot feed drives 40 windows through the
//                             dispatcher loop. With the min-deadline heap
//                             the timed hot phase must stay flat in N
//                             (the old per-wakeup deadline rescan was
//                             O(feeds)).
//   EdgeAggregator/E          E in {2,4,8} scripted edges stream
//                             pre-encoded frames (hello + 200 trajectory
//                             frames + bye each) over a Unix-socket
//                             loopback into one IngressServer feeding a
//                             live dispatcher: end-to-end framed ingest
//                             throughput scaling with edge count.
//
// Both overhead studies run through RunPairedStudy: one untimed warm-up
// run, then kPairs ABBA pairs (off, on, on, off), each iteration one
// pair. The ratio is the median of the per-pair ratios, with the lowest
// and highest as pair_ratio_min / pair_ratio_max.
//
// Measured elsewhere, so not here: multi-feed serving throughput
// (perfbench's serve_16f_open, on the shipped frt_serve); per-feed budget
// isolation (service_isolation_test's HogExhaustionNeverTouchesOtherFeeds);
// deadline closure (ServiceTest.DeadlineClosesPartialWindowBeforeInputEnds,
// StreamDeadlineTest, and perfbench's service.close_wait_p99_ms and
// service.windows_deadline_closed); span tracing (CI's trace smoke step
// and perfbench's trace.overhead_frac).

#include <benchmark/benchmark.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/ingress.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/registry.h"
#include "service/dispatcher.h"
#include "traj/trajectory.h"

namespace {

constexpr uint64_t kSeed = 42;

/// ABBA pairs per overhead study. A constant, so an overhead figure is
/// always the median of the same number of pairs.
constexpr int kPairs = 9;

/// Deterministic arrivals with unique ids.
std::vector<frt::Trajectory> FeedArrivals(int arrivals) {
  std::vector<frt::Trajectory> out;
  out.reserve(arrivals);
  for (int i = 0; i < arrivals; ++i) {
    const int points = 24 + (i * 7) % 13;
    double x = 200.0 + (i * 137) % 1700;
    double y = 300.0 + (i * 251) % 1500;
    int64_t t = 1000 + i;
    frt::Trajectory traj(i);
    for (int j = 0; j < points; ++j) {
      traj.Append(frt::Point{x, y}, t);
      x += 35.0 + (j * 11) % 20;
      y += 25.0 + ((i + j) * 13) % 30;
      t += 60;
    }
    out.push_back(std::move(traj));
  }
  return out;
}

frt::ServiceConfig BaseConfig() {
  frt::ServiceConfig config;
  config.stream.window_size = 10;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;
  config.pool_threads = 4;
  return config;
}

frt::ServiceSink CountingSink(size_t* trajectories) {
  return [trajectories](const std::string&, const frt::Dataset& published,
                        const frt::WindowReport&) -> frt::Status {
    *trajectories += published.size();
    return frt::Status::OK();
  };
}

/// Runs on the on-half's started service before its clock starts; what it
/// returns runs after Finish, outside the clock.
using AttachFn =
    std::function<std::function<void()>(frt::ServiceDispatcher& service)>;

/// An off/on overhead study: `feeds` feeds, each offered the same
/// `arrivals_per_feed` trajectories in windows of 100 (m = 5). The off
/// half runs `off`; the on half runs `on` with `attach` around it.
struct PairedStudy {
  int feeds = 0;
  int arrivals_per_feed = 0;
  frt::ServiceConfig off;
  frt::ServiceConfig on;
  AttachFn attach;
};

frt::ServiceConfig PairedConfig() {
  frt::ServiceConfig config = BaseConfig();
  config.stream.window_size = 100;
  config.stream.batch.pipeline.m = 5;
  return config;
}

/// Times one started service run from the first Offer to Finish; adds its
/// published trajectories to `*published`. Returns wall seconds, or < 0
/// on failure.
double TimedRun(const frt::ServiceConfig& config,
                const std::vector<std::string>& feeds,
                const std::vector<frt::Trajectory>& arrivals,
                const AttachFn& attach, size_t* published) {
  frt::ServiceDispatcher service(config, CountingSink(published));
  if (!service.Start(kSeed).ok()) return -1.0;
  const std::function<void()> detach =
      attach ? attach(service) : std::function<void()>();
  double elapsed = -1.0;
  const auto start = std::chrono::steady_clock::now();
  bool offered = true;
  for (const frt::Trajectory& t : arrivals) {
    for (const std::string& feed : feeds) {
      offered = offered && service.Offer(feed, t);
    }
  }
  if (service.Finish().ok() && offered) {
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  if (detach) detach();
  return elapsed;
}

/// Runs `study` as kPairs ABBA pairs (off, on, on, off) after one untimed
/// warm-up run, which pays the one-off costs (thread spawn, allocator
/// growth, page faults) that would bias whichever half ran first. The
/// mirrored order cancels linear drift (frequency throttling, cache
/// state) inside a pair, and the median keeps one disturbed pair from
/// moving the figure. Reports `ratio_counter` = median on/off throughput.
void RunPairedStudy(benchmark::State& state, const PairedStudy& study,
                    const char* ratio_counter) {
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(study.arrivals_per_feed);
  std::vector<std::string> feeds;
  for (int f = 0; f < study.feeds; ++f) {
    feeds.push_back("feed" + std::to_string(f));
  }
  size_t warmup_published = 0;
  if (TimedRun(study.off, feeds, arrivals, nullptr, &warmup_published) <
      0.0) {
    state.SkipWithError("service warm-up run failed");
    return;
  }
  std::vector<double> ratios;
  double seconds[2] = {0.0, 0.0};
  size_t published[2] = {0, 0};
  for (auto _ : state) {
    double pair_seconds[2] = {0.0, 0.0};
    size_t pair_published[2] = {0, 0};
    for (const bool on : {false, true, true, false}) {
      const double elapsed =
          TimedRun(on ? study.on : study.off, feeds, arrivals,
                   on ? study.attach : nullptr, &pair_published[on]);
      if (elapsed < 0.0) {
        state.SkipWithError("service run failed");
        return;
      }
      pair_seconds[on] += elapsed;
    }
    ratios.push_back((pair_published[1] / pair_seconds[1]) /
                     (pair_published[0] / pair_seconds[0]));
    for (const int half : {0, 1}) {
      seconds[half] += pair_seconds[half];
      published[half] += pair_published[half];
    }
  }
  std::sort(ratios.begin(), ratios.end());
  state.SetItemsProcessed(static_cast<int64_t>(published[0] + published[1]));
  state.counters["feeds"] = static_cast<double>(study.feeds);
  state.counters["throughput_off_per_s"] = published[0] / seconds[0];
  state.counters["throughput_on_per_s"] = published[1] / seconds[1];
  state.counters[ratio_counter] = ratios[ratios.size() / 2];
  state.counters["pair_ratio_min"] = ratios.front();
  state.counters["pair_ratio_max"] = ratios.back();
}

void BM_ServeCheckpoint(benchmark::State& state) {
  // Production-shaped windows (100 trajectories; the CLI default is
  // --window 1000): the write-ahead fsync is a fixed cost per publish
  // flush, so the overhead claim is stated at a window size where real
  // deployments run, not at a size that is all fsync.
  std::string templ = "/tmp/frt_bench_ckpt_XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string state_dir = templ;
  const std::string ledger = state_dir + "/budget_ledgers.ckpt";

  PairedStudy study;
  study.feeds = 8;
  study.arrivals_per_feed = 200;
  study.off = PairedConfig();
  study.on = PairedConfig();
  study.on.state_dir = state_dir;
  study.on.checkpoint_interval_ms = 50;
  size_t checkpoints = 0;
  study.attach = [&](frt::ServiceDispatcher& service) {
    // Every on-run starts cold (first boot, no recovery): recovery is not
    // part of the measured path, only the write-ahead snapshot + fsync.
    return std::function<void()>([&checkpoints, &service, &ledger] {
      checkpoints += service.report().checkpoints_written;
      ::unlink(ledger.c_str());
    });
  };
  RunPairedStudy(state, study, "checkpoint_throughput_ratio");
  ::rmdir(state_dir.c_str());
  state.counters["checkpoints_per_iter"] = benchmark::Counter(
      static_cast<double>(checkpoints), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeCheckpoint)
    ->Iterations(kPairs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One scrape: HTTP/1.0 GET over the admin Unix socket, response drained
/// to EOF. Returns false if the connection or write failed.
bool AdminGet(const frt::net::Endpoint& endpoint,
              const std::string& target) {
  auto conn = frt::net::ConnectTo(endpoint);
  if (!conn.ok()) return false;
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (!frt::net::WriteAll(conn->fd(), request.data(), request.size())
           .ok()) {
    return false;
  }
  ::shutdown(conn->fd(), SHUT_WR);
  char buf[4096];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::recv(conn->fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    total += static_cast<size_t>(n);
  }
  return total > 0;
}

void BM_ServeAdminScrapeOverhead(benchmark::State& state) {
  // The admin plane's core contract quantified: handlers only read
  // registry atomics and SnapshotBoard copies, so a live scraper (a
  // Prometheus server plus a curl-happy operator) must not move serving
  // throughput. A run lasts ~0.6 s on 4 CPUs, so each scraped run takes
  // several /metrics + /feedz pairs, not one.
  PairedStudy study;
  study.feeds = 16;
  study.arrivals_per_feed = 2500;
  study.off = PairedConfig();
  study.off.metrics_interval_ms = 100;  // live snapshot board ticks
  study.on = study.off;
  int round = 0;
  size_t scrapes = 0, failed_scrapes = 0;
  study.attach = [&](frt::ServiceDispatcher& service) {
    frt::net::Endpoint endpoint;
    endpoint.kind = frt::net::Endpoint::Kind::kUnix;
    endpoint.path = "/tmp/frt_bench_admin_" + std::to_string(::getpid()) +
                    "_" + std::to_string(round++) + ".sock";
    // The handlers the CLIs ship: /metrics renders the dispatcher's own
    // registry, /feedz its snapshot board through RenderFeedz.
    frt::obs::AdminServer::Options options;
    options.endpoint = endpoint;
    options.registry = service.config().registry;
    auto admin = std::make_shared<frt::obs::AdminServer>(options);
    admin->Handle("GET", "/feedz", [&service](const frt::obs::HttpRequest&) {
      return frt::obs::HttpResponse{200, "application/json",
                                    frt::RenderFeedz(*service.Introspect())};
    });
    if (!admin->Start().ok()) {
      ++failed_scrapes;  // no scrape can succeed; CI requires none failed
      return std::function<void()>();
    }
    auto stop = std::make_shared<std::atomic<bool>>(false);
    auto scraper = std::make_shared<std::thread>([=, &scrapes,
                                                  &failed_scrapes] {
      // 10 Hz, alternating /metrics and /feedz: both endpoints every
      // 200 ms, a cadence a Prometheus scrape_interval of a few seconds
      // would comfortably exceed.
      for (int n = 0; !stop->load(std::memory_order_relaxed); ++n) {
        ++scrapes;
        if (!AdminGet(endpoint, n % 2 == 0 ? "/metrics" : "/feedz")) {
          ++failed_scrapes;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    return std::function<void()>([admin, stop, scraper] {
      stop->store(true, std::memory_order_relaxed);
      scraper->join();
      admin->Stop();
    });
  };
  RunPairedStudy(state, study, "admin_scrape_throughput_ratio");
  state.counters["scrapes_per_iter"] = benchmark::Counter(
      static_cast<double>(scrapes), benchmark::Counter::kAvgIterations);
  state.counters["failed_scrapes_per_iter"] = benchmark::Counter(
      static_cast<double>(failed_scrapes),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ServeAdminScrapeOverhead)
    ->Iterations(kPairs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DispatcherWakeup(benchmark::State& state) {
  // Deadline handling must not scale with feed count: N dormant feeds sit
  // with one partial window each and an armed (far-future) close
  // deadline, while one hot feed drives 40 count-closed windows. The old
  // dispatcher rescanned every session's deadline on each loop wakeup
  // (O(feeds) per arrival); the min-deadline heap makes the timed hot
  // phase independent of N — real_time should stay flat from 16 to 2048
  // dormant feeds.
  const int dormant_feeds = static_cast<int>(state.range(0));
  const int hot_windows = 40;
  frt::ServiceConfig config = BaseConfig();
  // Armed on every dormant feed; never due during the run.
  config.stream.close_after_ms = 60 * 1000;
  const std::vector<frt::Trajectory> hot =
      FeedArrivals(hot_windows * 10);
  const frt::Trajectory dormant_arrival = FeedArrivals(1)[0];
  std::vector<std::string> dormant_names;
  dormant_names.reserve(dormant_feeds);
  for (int f = 0; f < dormant_feeds; ++f) {
    dormant_names.push_back("dormant" + std::to_string(f));
  }
  size_t hot_published_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::mutex mu;
    std::condition_variable cv;
    int hot_windows_published = 0;
    frt::ServiceDispatcher service(
        config, [&](const std::string& feed, const frt::Dataset&,
                    const frt::WindowReport&) -> frt::Status {
          if (feed == "hot") {
            std::lock_guard<std::mutex> lock(mu);
            ++hot_windows_published;
            cv.notify_all();
          }
          return frt::Status::OK();
        });
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    for (const std::string& name : dormant_names) {
      if (!service.Offer(name, dormant_arrival)) {
        state.SkipWithError("offer rejected");
        return;
      }
    }
    state.ResumeTiming();
    // Timed: drive the hot feed through the dispatcher loop while N
    // armed deadlines sit in the heap, and wait until its windows land.
    for (const frt::Trajectory& t : hot) {
      if (!service.Offer("hot", t)) {
        state.SkipWithError("offer rejected");
        return;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return hot_windows_published >= hot_windows; });
    }
    state.PauseTiming();
    // Untimed: the final flush publishes the N dormant partial windows —
    // O(N) work in any implementation, not what this study measures.
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
    hot_published_total += static_cast<size_t>(hot_windows_published);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * hot.size());
  state.counters["dormant_feeds"] = static_cast<double>(dormant_feeds);
  state.counters["hot_windows_per_iter"] =
      static_cast<double>(hot_windows);
}
BENCHMARK(BM_DispatcherWakeup)
    ->Arg(16)
    ->Arg(256)
    ->Arg(2048)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EdgeAggregator(benchmark::State& state) {
  // The distributed ingress tier end to end on a real Unix-socket
  // loopback: E scripted edges stream pre-encoded trajectory frames into
  // one IngressServer that offers into a live dispatcher. Measures
  // framing + CRC + decode + serve throughput as the edge count grows
  // (items_per_second = trajectories received and published).
  const int edges = static_cast<int>(state.range(0));
  const int trajs_per_edge = 200;
  const std::vector<frt::Trajectory> arrivals =
      FeedArrivals(trajs_per_edge);
  // Encode each edge's whole wire stream once, outside the timed loop:
  // the aggregator side is the system under test.
  std::vector<std::string> wires(static_cast<size_t>(edges));
  for (int e = 0; e < edges; ++e) {
    std::string& wire = wires[static_cast<size_t>(e)];
    frt::net::AppendFrame(&wire, frt::net::FrameType::kHello,
                          "bench-edge");
    const std::string feed = "edge" + std::to_string(e);
    for (const frt::Trajectory& t : arrivals) {
      frt::net::AppendFrame(&wire, frt::net::FrameType::kTrajectory,
                            frt::net::EncodeTrajectoryPayload(feed, t));
    }
    frt::net::AppendFrame(&wire, frt::net::FrameType::kBye, {});
  }
  size_t published = 0;
  size_t quarantines = 0;
  int round = 0;
  for (auto _ : state) {
    frt::ServiceDispatcher service(BaseConfig(), CountingSink(&published));
    if (!service.Start(kSeed).ok()) {
      state.SkipWithError("service failed to start");
      return;
    }
    frt::net::Endpoint endpoint;
    endpoint.kind = frt::net::Endpoint::Kind::kUnix;
    endpoint.path = "/tmp/frt_bench_agg_" + std::to_string(::getpid()) +
                    "_" + std::to_string(round++) + ".sock";
    frt::net::IngressServer::Options options;
    options.endpoint = endpoint;
    options.max_connections = static_cast<size_t>(edges);
    frt::net::IngressServer ingress(
        options,
        [&service](std::string feed, frt::Trajectory t) {
          return service.Offer(std::move(feed), std::move(t));
        },
        [&quarantines](const std::string&, const std::string&) {
          ++quarantines;
        });
    if (!ingress.Start().ok()) {
      state.SkipWithError("ingress failed to start");
      return;
    }
    std::vector<std::thread> senders;
    senders.reserve(static_cast<size_t>(edges));
    for (int e = 0; e < edges; ++e) {
      senders.emplace_back([&, e] {
        auto conn = frt::net::ConnectTo(endpoint);
        if (!conn.ok()) return;
        (void)frt::net::WriteAll(conn->fd(),
                                 wires[static_cast<size_t>(e)].data(),
                                 wires[static_cast<size_t>(e)].size());
      });
    }
    for (std::thread& t : senders) t.join();
    ingress.Wait();
    if (!service.Finish().ok()) {
      state.SkipWithError("service run failed");
      return;
    }
  }
  if (quarantines != 0) {
    state.SkipWithError("unexpected quarantine during clean loopback");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(published));
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["trajs_per_edge"] = static_cast<double>(trajs_per_edge);
}
BENCHMARK(BM_EdgeAggregator)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
