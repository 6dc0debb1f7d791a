// frt_stream — long-running windowed trajectory anonymizer.
//
// Consumes the CSV dataset format (traj/io.h) from a file or stdin
// (`--input -`) incrementally, assembles windows of --window trajectories
// (advancing by --stride arrivals; stride < window gives sliding,
// overlapping windows), anonymizes each window with the paper's pipeline
// (sharded over the worker pool), and appends each published window to
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
// frt_stream is a one-feed service (service/dispatcher.h): its input is
// the feed "stream", read by one reader thread, and --threads sizes the
// worker pool every window fans its shards and audit out over. Its output
// is byte-identical to `frt_serve --input stream=FILE --output-dir D`
// (D/stream.csv). Windows draw their noise from the feed's RNG stream,
// FeedStreamSeed(--seed, "stream", generation), forked once per window.
// Buffering is bounded by --queue arrivals (default 2*window) plus the
// window in flight and the next closed one.
//
// With --state-dir the budget ledger is checkpointed durably before every
// published window leaves the process and recovered on the next start
// through the conservative carry path — a crash or restart never
// re-grants spent epsilon — and every restart opens a new generation of
// the feed's RNG stream, so it never replays an earlier run's noise.
//
// --close-after-ms is the latency SLO for live/trickle feeds: a non-empty
// window is published no later than that many milliseconds after its
// oldest pending arrival, even when the feed has not yet filled --window.
//
// Exit codes: 0 = all windows published; 3 = completed but at least one
// window was refused (or object evicted) on budget; 1 = runtime error,
// including a malformed input line (windows closed before it are
// published, the partial window read ahead of it is not); 2 = usage
// error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "frt.h"
#include "service_cli.h"

int main(int argc, char** argv) {
  // Unsynced iostreams: with C-stdio sync on, cin's streambuf never
  // buffers, which degrades the incremental reader to byte-sized refills.
  std::ios::sync_with_stdio(false);
  // Untied: the reader thread reading cin must not flush cout while the
  // dispatcher writes rows to it (--input - --output -).
  std::cin.tie(nullptr);
  frt::cli::StreamCliArgs args;
  const frt::cli::FlagTable flags = frt::cli::StreamCliFlags(&args);
  frt::ServiceConfig config;
  if (!frt::cli::ParseFlags(argc, argv, flags) ||
      !frt::cli::Require(!args.input.empty() && !args.output.empty(),
                         "--input and --output are required") ||
      !frt::cli::MakeServiceConfig(args.common, &config)) {
    frt::cli::PrintUsage(argv[0], flags);
    return 2;
  }
  if (config.arrival_queue_capacity == 0) {
    config.arrival_queue_capacity = 2 * config.stream.window_size;
  }
  config.max_backlog_windows = 1;

  std::ofstream output_file;
  if (args.output != "-") {
    output_file.open(args.output, std::ios::trunc);
    if (!output_file.is_open()) {
      std::fprintf(stderr, "cannot open output: %s\n", args.output.c_str());
      return 1;
    }
  }
  std::ostream& out = args.output == "-" ? std::cout : output_file;

  frt::cli::StartTracing(args.common.obs);

  const bool per_object = config.stream.per_object();
  const double budget = config.stream.budget();
  const std::string budget_note =
      budget > 0.0 ? " of " + std::to_string(budget) : "";
  bool wrote_header = false;
  // Runs on the dispatcher thread, after the write-ahead checkpoint that
  // covers this window's spend.
  auto sink = [&](const std::string&, const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
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
    const std::string evicted_note =
        window.trajectories_evicted > 0
            ? ", " + std::to_string(window.trajectories_evicted) + " evicted"
            : "";
    std::fprintf(stderr,
                 "window %zu: %zu trajs%s, eps=%.2f (%s %.2f%s), %.2fs "
                 "wall, shard wall min/mean/max %.3f/%.3f/%.3f s\n",
                 window.index, window.trajectories, evicted_note.c_str(),
                 window.epsilon_spent, per_object ? "max object" : "ledger",
                 window.epsilon_total, budget_note.c_str(),
                 batch.wall_seconds, batch.shard_wall_min,
                 batch.shard_wall_mean, batch.shard_wall_max);
    frt::cli::PrintAuditReport(batch.audit);
    return frt::Status::OK();
  };

  frt::ServiceDispatcher service(std::move(config), sink);
  if (auto st = service.Start(args.common.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "stream: %s\n", st.ToString().c_str());
    return 1;
  }
  // Declared after the service: both reference it.
  std::unique_ptr<frt::MetricsExporter> metrics;
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (auto st = frt::cli::StartObservability(args.common, service, &metrics,
                                             &admin);
      !st.ok()) {
    std::fprintf(stderr, "stream: %s\n", st.ToString().c_str());
    return 1;
  }

  const frt::Status ingest_status = frt::cli::IngestLocalFeeds(
      {/*feeds=*/"", {{"stream", args.input}}}, service);
  frt::Status run_status = service.Finish();
  frt::cli::FinishObservability(args.common.obs, metrics.get(), &run_status);
  if (run_status.ok()) run_status = ingest_status;
  const frt::ServiceSnapshot& report = service.report();
  const frt::ServiceSnapshot::Feed* feed =
      report.feeds_detail.empty() ? nullptr : &report.feeds_detail.front();
  if (!run_status.ok()) {
    std::fprintf(stderr, "stream: %s\n", run_status.ToString().c_str());
    return 1;
  }
  if (feed != nullptr && feed->quarantined) {
    std::fprintf(stderr, "stream: %s\n", feed->quarantine_reason.c_str());
    return 1;
  }
  frt::cli::PrintDurability(args.common.durability, report);

  const frt::StreamReport stream =
      feed != nullptr ? feed->stream : frt::StreamReport{};
  std::fprintf(stderr,
               "stream done in %.1fs: %zu trajectories in, %zu windows "
               "published (%zu trajs), eps %s %.2f\n",
               static_cast<double>(report.uptime_ms) / 1000.0,
               stream.trajectories_in,
               stream.windows_published, stream.trajectories_published,
               per_object ? "max object" : "ledger", stream.epsilon_spent);
  if (per_object) {
    const frt::FeedSession* session = service.session("stream");
    std::fprintf(stderr,
                 "per-object accounting: max object eps %.2f vs %.2f the "
                 "wholesale ledger would have charged (%zu object(s) "
                 "tracked, %zu evicted from windows)\n",
                 stream.epsilon_spent, stream.epsilon_wholesale_equivalent,
                 session != nullptr
                     ? session->ledger().tracked_objects()
                     : size_t{0},
                 stream.trajectories_evicted);
  }
  if (frt::StreamHadRefusals(stream)) {
    std::fprintf(stderr,
                 "budget exhausted: refused %zu window(s) / %zu "
                 "trajectories, evicted %zu trajectorie(s), after spending "
                 "%.2f of %.2f; raise the budget or lower the per-window "
                 "epsilons to cover more of the stream\n",
                 stream.windows_refused, stream.trajectories_refused,
                 stream.trajectories_evicted, stream.epsilon_spent, budget);
    return 3;
  }
  return 0;
}
