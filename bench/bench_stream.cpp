// bench_stream — budget-accountant A/B on a one-feed ServiceDispatcher,
// the configuration frt_stream runs: wholesale ledger vs per-object
// ledgers on a feed whose object-ids recycle. With an identical feed,
// budget, and seed, the wholesale ledger bills every window against one
// sum and runs dry after budget/(eps_G+eps_L) windows; the per-object
// accountant caps each object's own cumulative spend, so windows full of
// objects that have not yet spent their budget keep publishing — strictly
// more windows under the identical per-object end-to-end guarantee.
//
// Streaming throughput and latency on the shipped CLI are perfbench's
// stream_w1000_8k workload.
//
//   FRT_SCALE=full  -> 8,000 arrivals over 2,000 ids (default 2,000 / 500).
//   FRT_SEED=<n>    -> master seed (default 42).
//   FRT_THREADS=<n> -> pool workers (default 6).

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/dispatcher.h"
#include "stream/ingest.h"
#include "traj/io.h"

namespace {

// Pool workers.
unsigned StudyThreads() {
  const char* env = std::getenv("FRT_THREADS");
  if (env != nullptr) {
    const unsigned n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (n > 0) return n;
  }
  return 6;
}

/// Streams `csv` through a one-feed dispatcher (feed "stream") the way
/// frt_stream does, discarding what it publishes. Returns the service
/// report (its final snapshot), or the first error.
frt::Result<frt::ServiceSnapshot> RunOneFeed(const frt::StreamConfig& stream,
                                           unsigned threads,
                                           const std::string& csv,
                                           uint64_t seed) {
  frt::ServiceConfig config;
  config.stream = stream;
  config.pool_threads = threads;
  config.arrival_queue_capacity = 2 * stream.window_size;
  config.max_backlog_windows = 1;
  frt::ServiceDispatcher service(
      config, [](const std::string&, const frt::Dataset&,
                 const frt::WindowReport&) { return frt::Status::OK(); });
  FRT_RETURN_IF_ERROR(service.Start(seed));
  std::istringstream in(csv);
  frt::TrajectoryReader reader(in);
  const frt::Status ingest = frt::OfferFeed(reader, "stream", service);
  FRT_RETURN_IF_ERROR(service.Finish());
  FRT_RETURN_IF_ERROR(ingest);
  return service.report();
}

// The feed: `arrivals` trajectories whose ids recycle modulo
// `distinct_ids`, so every object reappears arrivals/distinct_ids times
// across the stream — the reappearance pattern that separates wholesale
// from per-object accounting. Ids stay unique within any window of up to
// `distinct_ids` arrivals.
std::string RecyclingFeedCsv(int arrivals, int distinct_ids) {
  std::ostringstream out;
  out << "# traj_id,x,y,t\n";
  for (int i = 0; i < arrivals; ++i) {
    const int id = i % distinct_ids;
    const int points = 24 + (i * 7) % 13;
    double x = 200.0 + (i * 137) % 1700;
    double y = 300.0 + (i * 251) % 1500;
    int64_t t = 1000 + i;
    for (int j = 0; j < points; ++j) {
      out << id << ',' << x << ',' << y << ',' << t << '\n';
      x += 35.0 + (j * 11) % 20;
      y += 25.0 + ((i + j) * 13) % 30;
      t += 60;
    }
  }
  return out.str();
}

}  // namespace

int main() {
  const bool full = frt::bench::FullScale();
  const uint64_t seed = frt::bench::MasterSeed();
  const unsigned threads = StudyThreads();

  const int ab_arrivals = full ? 8000 : 2000;
  const int ab_distinct = full ? 2000 : 500;
  const size_t ab_window = full ? 1000 : 250;
  const double ab_budget = 6.0;  // per-window eps is 1.0 (0.5 + 0.5)
  const size_t ab_total_windows =
      static_cast<size_t>(ab_arrivals) / ab_window;
  std::printf("bench_stream: accountant A/B, %d arrivals over %d "
              "distinct object-ids (each reappears %dx), window=%zu, "
              "budget=%.1f, eps 1.0/window\n",
              ab_arrivals, ab_distinct, ab_arrivals / ab_distinct, ab_window,
              ab_budget);
  const std::string ab_csv = RecyclingFeedCsv(ab_arrivals, ab_distinct);

  // guarantee_eps is each mode's end-to-end bound: the ledger sum under
  // wholesale, the max per-object cumulative spend under per-object.
  std::printf("%12s %10s %10s %12s %14s %12s\n", "accounting", "windows",
              "refused", "trajs_out", "guarantee_eps", "ledger_eps");
  size_t wholesale_published = 0, per_object_published = 0;
  for (const bool per_object : {false, true}) {
    frt::StreamConfig config;
    config.window_size = ab_window;
    (per_object ? config.per_object_budget : config.total_budget) = ab_budget;
    config.batch.shards = 4;
    config.batch.pipeline.m = 3;
    auto service_report = RunOneFeed(config, threads, ab_csv, seed);
    if (!service_report.ok()) {
      std::fprintf(stderr, "A/B run failed: %s\n",
                   service_report.status().ToString().c_str());
      return 1;
    }
    const frt::StreamReport& report =
        service_report->feeds_detail.front().stream;
    (per_object ? per_object_published : wholesale_published) =
        report.windows_published;
    std::printf("%12s %10zu %10zu %12zu %14.2f %12.2f\n",
                per_object ? "per-object" : "wholesale",
                report.windows_published, report.windows_refused,
                report.trajectories_published, report.epsilon_spent,
                report.epsilon_wholesale_equivalent);
  }
  std::printf("\nper-object accounting published %zu of %zu windows vs "
              "%zu wholesale (%s) — same feed, same budget, same seed, "
              "same per-object guarantee.\n",
              per_object_published, ab_total_windows, wholesale_published,
              per_object_published > wholesale_published
                  ? "strictly more"
                  : "NOT more — regression");
  return 0;
}
