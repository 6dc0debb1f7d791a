// frt_stream — long-running windowed trajectory anonymizer.
//
// Consumes the CSV dataset format (traj/io.h) from a file or stdin
// (`--input -`) incrementally, assembles windows of --window trajectories
// (advancing by --stride arrivals; stride < window gives sliding,
// overlapping windows), anonymizes each window with the paper's pipeline
// (sharded, work-stealing execution), and appends each published window to
// the output as soon as it is done. Within a window the guarantee is
// eps_G + eps_L (parallel composition over shards); across windows spends
// compose sequentially under one of two ledgers:
//
//   --budget B            wholesale: all windows' spends sum against B.
//   --per-object-budget B per object-id: each object's own cumulative
//                         spend is capped at B (the paper's per-object
//                         guarantee); add --evict-exhausted to drop just
//                         the exhausted objects instead of whole windows.
//
// Once a window cannot be covered it is refused, not published.
//
//   frt_stream --input raw.csv|- --output published.csv|-
//       [--window 1000] [--stride N] [--budget 0 (unlimited)]
//       [--per-object-budget 0] [--evict-exhausted]
//       [--epsilon-global 0.5] [--epsilon-local 0.5] [--m 10]
//       [--strategy hg+|hgt|hgb|ug|linear] [--order global|local]
//       [--seed 42] [--shards 1] [--threads 0] [--queue 0]
//       [--dispatch steal|static] [--stop-on-exhausted]
//       [--close-after-ms 0] [--state-dir DIR] [--metrics PATH]
//       [--trace-out PATH] [--trace-buffer-events N] [--metrics-histograms]
//       [--admin-listen EP]
//
// With --state-dir the budget ledger is checkpointed durably before every
// published window leaves the process and recovered on the next start
// (PrivacyAccountant::PreloadSpent / ObjectBudgetAccountant::PreloadFloor
// — the conservative carry), so a crash or restart against the same state
// dir never re-grants spent epsilon.
//
// --close-after-ms is the latency SLO for live/trickle feeds: a non-empty
// window is published no later than that many milliseconds after its
// oldest pending arrival, even when the feed has not yet filled --window.
//
// Exit codes: 0 = all windows published; 3 = completed but at least one
// window was refused (or object evicted) on budget; 1 = runtime error;
// 2 = usage error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "cli_common.h"
#include "frt.h"
#include "obs/admin_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/checkpoint.h"
#include "service/metrics_exporter.h"
#include "stream/ingest.h"
#include "stream/stream_runner.h"

namespace {

struct Args {
  std::string input;
  std::string output;
  frt::cli::StreamArgs stream;
  frt::cli::PipelineArgs pipeline;
  frt::cli::DurabilityArgs durability;
  frt::cli::ObservabilityArgs obs;
};

void Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --input FILE|- --output FILE|- [options]\n"
               "  --input -            read the feed from stdin\n"
               "%s%s%s%s",
               prog, frt::cli::DurabilityUsageText(),
               frt::cli::ObservabilityUsageText(),
               frt::cli::StreamUsageText(), frt::cli::PipelineUsageText());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    switch (frt::cli::ParsePipelineFlag(argc, argv, &i, &args->pipeline)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (frt::cli::ParseStreamFlag(argc, argv, &i, &args->stream)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (
        frt::cli::ParseDurabilityFlag(argc, argv, &i, &args->durability)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    switch (frt::cli::ParseObservabilityFlag(argc, argv, &i, &args->obs)) {
      case frt::cli::FlagParse::kConsumed:
        continue;
      case frt::cli::FlagParse::kError:
        return false;
      case frt::cli::FlagParse::kNotMine:
        break;
    }
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--input") == 0) {
      if ((v = next("--input")) == nullptr) return false;
      args->input = v;
    } else if (std::strcmp(argv[i], "--output") == 0) {
      if ((v = next("--output")) == nullptr) return false;
      args->output = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (args->input.empty() || args->output.empty()) {
    std::fprintf(stderr, "--input and --output are required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Unsynced iostreams: with C-stdio sync on, cin's streambuf never
  // buffers, which degrades the incremental reader to byte-sized refills.
  std::ios::sync_with_stdio(false);
  // Untied: the ingest thread reading cin must not flush cout while the
  // publisher writes rows to it (--input - --output -).
  std::cin.tie(nullptr);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  frt::FrequencyRandomizerConfig pipeline_config;
  if (!frt::cli::MakePipelineConfig(args.pipeline, &pipeline_config)) {
    Usage(argv[0]);
    return 2;
  }
  frt::StreamRunnerConfig config;
  if (!frt::cli::MakeStreamConfig(args.stream, args.pipeline, pipeline_config,
                                  &config)) {
    Usage(argv[0]);
    return 2;
  }
  // A bad --admin-listen is a usage error, not a mid-run failure.
  std::optional<frt::net::Endpoint> admin_endpoint;
  if (!args.obs.admin_listen.empty()) {
    auto endpoint = frt::net::ParseEndpoint(args.obs.admin_listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   endpoint.status().ToString().c_str());
      Usage(argv[0]);
      return 2;
    }
    admin_endpoint = *std::move(endpoint);
  }

  std::ifstream input_file;
  if (args.input != "-") {
    input_file.open(args.input);
    if (!input_file.is_open()) {
      std::fprintf(stderr, "cannot open input: %s\n", args.input.c_str());
      return 1;
    }
  }
  std::istream& in = args.input == "-" ? std::cin : input_file;

  std::ofstream output_file;
  if (args.output != "-") {
    output_file.open(args.output, std::ios::trunc);
    if (!output_file.is_open()) {
      std::fprintf(stderr, "cannot open output: %s\n", args.output.c_str());
      return 1;
    }
  }
  std::ostream& out = args.output == "-" ? std::cout : output_file;

  // ---- Durable budget ledger (single feed entry "stream"). ----
  std::optional<frt::CheckpointStore> store;
  uint64_t checkpoint_seq = 0;
  uint64_t generation = 0;
  uint64_t windows_closed_base = 0;
  size_t checkpoints_written = 0;
  if (!args.durability.state_dir.empty()) {
    auto opened = frt::CheckpointStore::Open(args.durability.state_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store.emplace(*std::move(opened));
    auto loaded = store->Load();
    if (!loaded.ok()) {
      // A corrupt snapshot must fail the start: running without the
      // recovered spend would re-grant budget that was already consumed.
      std::fprintf(stderr, "stream: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (loaded->has_value()) {
      checkpoint_seq = (*loaded)->sequence;
      for (const frt::FeedCheckpoint& feed : (*loaded)->feeds) {
        if (feed.feed != "stream") continue;
        config.preload_wholesale_spent = feed.wholesale_spent;
        config.preload_object_floor = feed.per_object_floor;
        generation = feed.generations;
        windows_closed_base = feed.windows_closed;
      }
      std::fprintf(stderr,
                   "stream: recovered budget state from %s (seq %llu, "
                   "wholesale spent %.6f, per-object floor %.6f)\n",
                   args.durability.state_dir.c_str(),
                   static_cast<unsigned long long>(checkpoint_seq),
                   config.preload_wholesale_spent,
                   config.preload_object_floor);
    }
    ++generation;
  }

  std::unique_ptr<frt::MetricsExporter> metrics;
  if (!args.durability.metrics.empty()) {
    metrics = std::make_unique<frt::MetricsExporter>(
        frt::cli::MakeMetricsOptions(args.durability, args.obs));
    if (auto st = metrics->Start(); !st.ok()) {
      std::fprintf(stderr, "stream: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Arm span tracing before the runner spawns its ingest/pool threads.
  if (!args.obs.trace_out.empty()) {
    frt::obs::TraceRecorder::Options trace_options;
    trace_options.buffer_events =
        static_cast<size_t>(args.obs.trace_buffer_events);
    frt::obs::TraceRecorder::Get().Start(trace_options);
    frt::obs::SetTraceThreadName("stream-runner");
  }

  // ---- Admin plane (--admin-listen): the pre-registered /metrics and
  // /healthz endpoints plus runtime control over tracing and the metrics
  // cadence. Handlers only touch the registry and the exporter's atomic
  // interval — never the runner. ----
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (admin_endpoint.has_value()) {
    frt::obs::AdminServer::Options admin_options;
    admin_options.endpoint = *admin_endpoint;
    admin = std::make_unique<frt::obs::AdminServer>(admin_options);
    frt::obs::ControlHooks hooks;
    hooks.trace_out = args.obs.trace_out;
    hooks.trace_buffer_events =
        static_cast<size_t>(args.obs.trace_buffer_events);
    if (metrics) {
      frt::MetricsExporter* exporter = metrics.get();
      hooks.set_metrics_interval_ms = [exporter](int64_t ms) {
        exporter->SetIntervalMs(ms);
        return true;
      };
    }
    admin->Handle("POST", "/control",
                  frt::obs::MakeControlHandler(std::move(hooks)));
    if (auto st = admin->Start(); !st.ok()) {
      std::fprintf(stderr, "stream: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "stream: admin plane on %s\n",
                 args.obs.admin_listen.c_str());
  }

  frt::TrajectoryReader reader(in);
  frt::StreamRunner runner(config);
  frt::Rng rng(args.pipeline.seed);
  const bool per_object =
      config.accounting == frt::BudgetAccounting::kPerObject;
  const auto run_started = std::chrono::steady_clock::now();
  size_t windows_published_so_far = 0;
  size_t trajectories_published_so_far = 0;

  auto write_checkpoint = [&]() -> frt::Status {
    frt::ServiceCheckpoint image;
    image.sequence = checkpoint_seq + 1;
    image.total_budget = config.total_budget;
    image.per_object_budget = config.per_object_budget;
    frt::FeedCheckpoint feed;
    feed.feed = "stream";
    feed.generations = generation;
    feed.windows_closed = windows_closed_base + windows_published_so_far;
    feed.wholesale_spent = runner.accountant().spent();
    feed.per_object_floor = runner.object_accountant().max_spent();
    image.feeds.push_back(std::move(feed));
    FRT_RETURN_IF_ERROR(store->Write(image));
    checkpoint_seq = image.sequence;
    ++checkpoints_written;
    return frt::Status::OK();
  };

  bool wrote_header = false;
  auto sink = [&](const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
    // Write-ahead: ProcessWindow charged the accountants before calling
    // the sink, so a durable snapshot taken NOW covers this window's
    // spend. Only after it persists may the rows leave the process.
    if (store.has_value()) {
      FRT_RETURN_IF_ERROR(write_checkpoint());
    }
    if (!wrote_header) {
      out << "# traj_id,x,y,t\n";
      wrote_header = true;
    }
    for (const auto& t : published.trajectories()) {
      frt::WriteTrajectoryCsv(t, out);
    }
    out.flush();
    if (!out.good()) return frt::Status::IOError("write failed");
    const frt::BatchReport& batch = window.batch;
    std::string evicted_note =
        window.trajectories_evicted > 0
            ? ", " + std::to_string(window.trajectories_evicted) + " evicted"
            : "";
    std::fprintf(stderr,
                 "window %zu: %zu trajs%s, eps=%.2f (%s %.2f%s), %.2fs "
                 "wall, shard wall min/mean/max %.3f/%.3f/%.3f s\n",
                 window.index, window.trajectories, evicted_note.c_str(),
                 window.epsilon_spent,
                 per_object ? "max object" : "ledger", window.epsilon_total,
                 args.stream.budget > 0.0
                     ? (" of " + std::to_string(args.stream.budget)).c_str()
                     : (args.stream.per_object_budget > 0.0
                            ? (" of " +
                               std::to_string(args.stream.per_object_budget))
                                  .c_str()
                            : ""),
                 batch.wall_seconds, batch.shard_wall_min,
                 batch.shard_wall_mean, batch.shard_wall_max);
    frt::cli::PrintAuditReport(batch.audit);
    ++windows_published_so_far;
    trajectories_published_so_far += window.trajectories;
    if (metrics) {
      frt::MetricsSnapshot snapshot;
      snapshot.seq = windows_published_so_far;
      snapshot.uptime_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - run_started)
              .count();
      snapshot.feeds = 1;
      snapshot.active_sessions = 1;
      snapshot.windows_published = windows_published_so_far;
      snapshot.trajectories_published = trajectories_published_so_far;
      snapshot.epsilon_spent_max = window.epsilon_total;
      snapshot.checkpoint_seq = checkpoint_seq;
      snapshot.checkpoints_written = checkpoints_written;
      if (checkpoints_written > 0) snapshot.checkpoint_age_ms = 0.0;
      if (metrics->per_feed()) {
        frt::MetricsSnapshot::Feed detail;
        detail.feed = "stream";
        detail.epsilon_spent = window.epsilon_total;
        const double budget =
            per_object ? config.per_object_budget : config.total_budget;
        detail.epsilon_remaining =
            budget > 0.0 ? std::max(0.0, budget - window.epsilon_total)
                         : std::numeric_limits<double>::infinity();
        detail.windows_published = windows_published_so_far;
        snapshot.feeds_detail.push_back(std::move(detail));
      }
      metrics->Publish(std::move(snapshot));
    }
    return frt::Status::OK();
  };

  frt::Status run_status = runner.Run(reader, sink, rng);
  // Clean-shutdown snapshot: spend recorded after the last publish (or a
  // failed run's partial spend) stays durable.
  if (store.has_value()) {
    if (auto st = write_checkpoint(); !st.ok() && run_status.ok()) {
      run_status = st;
    }
  }
  if (metrics) metrics->Stop();
  if (!args.obs.trace_out.empty()) {
    // Run() joined its producer and pool threads, so the dump is complete.
    const frt::obs::TraceDump dump = frt::obs::TraceRecorder::Get().Stop();
    if (auto st = frt::obs::WriteChromeTrace(dump, args.obs.trace_out);
        !st.ok()) {
      if (run_status.ok()) run_status = st;
    } else {
      std::fprintf(stderr,
                   "trace: wrote %zu span(s) from %zu thread(s) to %s "
                   "(%llu dropped)\n",
                   dump.events.size(), dump.threads.size(),
                   args.obs.trace_out.c_str(),
                   static_cast<unsigned long long>(dump.dropped));
    }
  }
  if (!run_status.ok()) {
    std::fprintf(stderr, "stream: %s\n", run_status.ToString().c_str());
    return 1;
  }
  if (store.has_value()) {
    std::fprintf(stderr,
                 "durability: wrote %zu checkpoint(s) to %s (last seq "
                 "%llu)\n",
                 checkpoints_written, args.durability.state_dir.c_str(),
                 static_cast<unsigned long long>(checkpoint_seq));
  }

  const frt::StreamReport& report = runner.report();
  std::fprintf(stderr,
               "stream done in %.1fs: %zu trajectories in, %zu windows "
               "published (%zu trajs), eps %s %.2f\n",
               report.wall_seconds, report.trajectories_in,
               report.windows_published, report.trajectories_published,
               per_object ? "max object" : "ledger", report.epsilon_spent);
  if (per_object) {
    std::fprintf(stderr,
                 "per-object accounting: max object eps %.2f vs %.2f the "
                 "wholesale ledger would have charged (%zu object(s) "
                 "tracked, %zu evicted from windows)\n",
                 runner.object_accountant().max_spent(),
                 report.epsilon_wholesale_equivalent,
                 runner.object_accountant().tracked_objects(),
                 report.trajectories_evicted);
  }
  if (frt::StreamHadRefusals(report)) {
    std::fprintf(stderr,
                 "budget exhausted: refused %zu window(s) / %zu "
                 "trajectories, evicted %zu trajectorie(s), after spending "
                 "%.2f of %.2f; raise the budget or lower the per-window "
                 "epsilons to cover more of the stream\n",
                 report.windows_refused, report.trajectories_refused,
                 report.trajectories_evicted, report.epsilon_spent,
                 per_object ? args.stream.per_object_budget
                            : args.stream.budget);
    return 3;
  }
  return 0;
}
