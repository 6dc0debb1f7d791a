// frt_bench gen — seeded raw inputs for the benchmark workloads.
//
//   frt_bench gen --taxis N --points P --seed S --out FILE
//       writes N raw GenerateTaxiWorkload trajectories as a dataset CSV.
//   frt_bench gen --points P --seed S --out FILE --schedule FILE
//       --feeds K --rate R --seconds T --zipf Z
//       draws Poisson arrivals at R trajectories/s over T seconds, assigns
//       each arrival to one of K feeds by a Zipf(Z) law, generates that many
//       raw trajectories, and writes them in arrival order as a multi-feed
//       CSV (`feed,traj_id,x,y,t`) plus one schedule line per trajectory
//       (`due_us nbytes`: send offset and the size of its rows in FILE).
//
// The trajectories are the generator's raw output, never a published
// dataset, so every workload times the anonymization of unanonymized data.

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_tool.h"
#include "common/rng.h"
#include "common/strings.h"
#include "synth/workload.h"
#include "traj/io.h"

namespace frt::bench {
namespace {

// Arrival schedule of the open-loop workload: due offsets (us) and feeds.
struct Schedule {
  std::vector<int64_t> due_us;
  std::vector<int> feed;
};

Schedule DrawSchedule(uint64_t seed, double rate, double seconds, int feeds,
                      double zipf) {
  // A stream separate from the trajectory generator's, so the arrival
  // process does not shift the generated geometry.
  Rng rng(seed ^ 0x5eed5c4ed01eULL);
  std::vector<double> cdf(static_cast<size_t>(feeds));
  double total = 0.0;
  for (int k = 0; k < feeds; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf);
    cdf[static_cast<size_t>(k)] = total;
  }
  Schedule s;
  double t = rng.Exponential(rate);
  while (t < seconds) {
    s.due_us.push_back(static_cast<int64_t>(std::llround(t * 1e6)));
    const double u = rng.Uniform() * total;
    int k = 0;
    while (k + 1 < feeds && cdf[static_cast<size_t>(k)] <= u) ++k;
    s.feed.push_back(k);
    t += rng.Exponential(rate);
  }
  return s;
}

}  // namespace

int RunGen(const Flags& flags) {
  bool ok = true;
  const int64_t seed = flags.Int("seed", 42, &ok);
  const int64_t points = flags.Int("points", 60, &ok);
  int64_t taxis = flags.Int("taxis", 0, &ok);
  const int64_t feeds = flags.Int("feeds", 0, &ok);
  const double rate = flags.Double("rate", 0.0, &ok);
  const double seconds = flags.Double("seconds", 0.0, &ok);
  const double zipf = flags.Double("zipf", 1.0, &ok);
  const std::string out_path = flags.Str("out");
  const std::string schedule_path = flags.Str("schedule");
  const bool multi_feed = feeds > 0;
  if (!ok || out_path.empty() || points < 2 ||
      (multi_feed && (schedule_path.empty() || rate <= 0.0 ||
                      seconds <= 0.0)) ||
      (!multi_feed && taxis < 1)) {
    std::fprintf(stderr,
                 "usage: frt_bench gen --seed S --points P --out FILE "
                 "(--taxis N | --feeds K --rate R --seconds T --zipf Z "
                 "--schedule FILE)\n");
    return 2;
  }

  Schedule schedule;
  if (multi_feed) {
    schedule = DrawSchedule(static_cast<uint64_t>(seed), rate, seconds,
                            static_cast<int>(feeds), zipf);
    taxis = static_cast<int64_t>(schedule.due_us.size());
    if (taxis < 1) {
      std::fprintf(stderr, "frt_bench gen: schedule has no arrivals\n");
      return 2;
    }
  }

  WorkloadConfig config;
  config.num_taxis = static_cast<int>(taxis);
  config.target_points = static_cast<int>(points);
  auto workload = GenerateTaxiWorkload(config, RoadGenConfig{},
                                       static_cast<uint64_t>(seed));
  if (!workload.ok()) {
    std::fprintf(stderr, "frt_bench gen: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = workload->dataset;

  if (!multi_feed) {
    if (auto st = SaveDatasetCsv(dataset, out_path); !st.ok()) {
      std::fprintf(stderr, "frt_bench gen: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    std::ofstream sched(schedule_path, std::ios::trunc);
    if (!out.is_open() || !sched.is_open()) {
      std::fprintf(stderr, "frt_bench gen: cannot open outputs\n");
      return 1;
    }
    for (size_t i = 0; i < dataset.size(); ++i) {
      std::ostringstream rows;
      WriteTrajectoryCsv(dataset[i], rows,
                         StrFormat("f%02d,", schedule.feed[i]));
      const std::string bytes = rows.str();
      out << bytes;
      sched << schedule.due_us[i] << ' ' << bytes.size() << '\n';
    }
    out.flush();
    sched.flush();
    if (!out.good() || !sched.good()) {
      std::fprintf(stderr, "frt_bench gen: write failed\n");
      return 1;
    }
  }

  JsonObject result;
  result.Int("trajectories", static_cast<int64_t>(dataset.size()));
  result.Int("points", static_cast<int64_t>(dataset.TotalPoints()));
  std::printf("%s\n", result.Render().c_str());
  return 0;
}

}  // namespace frt::bench
