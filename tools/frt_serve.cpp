// frt_serve — multi-feed trajectory anonymization service.
//
// Serves many independent trajectory feeds through one shared worker pool
// with per-feed DP budgets (src/service). Feeds arrive either interleaved
// in one multi-feed CSV with a leading feed column, or as one classic
// dataset CSV per feed (--input, repeatable).
//
// With --listen the service becomes the aggregator of the distributed
// ingress tier (src/net): frt_edge processes connect over a Unix or TCP
// socket and stream framed trajectories in. Backpressure is the
// dispatcher's bounded arrival lane — a slow aggregator blocks the
// reader, fills the kernel buffers, and stalls the edge's writes. A
// malformed or corrupt frame quarantines the feeds on that connection
// (their output stops at the fault; exit code 3) without disturbing any
// other feed. --listen-conns N exits cleanly after N edge streams end;
// otherwise SIGINT/SIGTERM (blocked in every thread, taken by sigwait)
// stops ingress, silent edges included, and the service drains; a feed
// whose edge had not said bye is quarantined.
//
// Each feed gets its own session: its own window assembler, its own
// wholesale/per-object budget ledgers, and its own deterministic RNG
// stream — one feed exhausting its budget never changes another feed's
// published windows, and a feed's output is bit-identical to a solo run
// at the same seed. Windows close by count (--window), by wall-clock
// deadline (--close-after-ms), or at end of input; sessions idle longer
// than --evict-idle-ms are flushed and evicted (their budget state
// carries into any later revival).
//
// --threads sizes the worker pool every feed's window jobs share (default
// 0 = max(2, cores)).
//
// With --state-dir the per-feed budget ledgers are checkpointed durably
// (write-ahead of every publish) and recovered on the next start through
// the same conservative carry path idle eviction uses — a crash or
// restart never re-grants spent epsilon. --metrics appends one
// machine-readable frt_metrics line and six frt_stage lines per interval
// (see service/metrics_exporter.h).
//
// --output writes one merged stream in the multi-feed format (lines
// `feed,traj_id,x,y,t`); --output-dir writes one classic dataset CSV per
// feed. Per-feed budgets come from the shared stream flags: every feed
// gets the same --budget / --per-object-budget applied to its OWN ledger.
// --queue bounds the dispatcher's tagged arrival queue;
// --stop-on-exhausted ends the service at the first refused window on ANY
// feed (ingress stops, already-closed windows drain, clean exit).
//
// Exit codes: 0 = every window of every feed published; 3 = completed but
// at least one feed had a window refused (or object evicted) on budget,
// or was quarantined on a malformed stream; 1 = runtime error; 2 = usage
// error.

#include <signal.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frt.h"
#include "net/ingress.h"
#include "service_cli.h"

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  // cin is tied to cout by default, so every read on the ingest thread
  // would flush cout — racing the dispatcher writing published rows to it
  // (--feeds - --output -) and tearing rows.
  std::cin.tie(nullptr);
  // A peer vanishing mid-write must surface as an I/O error on that one
  // connection, never a process-wide SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  frt::cli::ServeArgs args;
  const frt::cli::FlagTable flags = frt::cli::ServeFlags(&args);
  frt::ServiceConfig config;
  const auto sources = [&args] {
    return !args.local.feeds.empty() + !args.local.inputs.empty() +
           !args.listen.empty();
  };
  if (!frt::cli::ParseFlags(argc, argv, flags) ||
      !frt::cli::Require(sources() == 1,
                         "exactly one of --feeds, --input (repeatable), or "
                         "--listen is required") ||
      !frt::cli::Require(args.listen_conns == 0 || !args.listen.empty(),
                         "--listen-conns requires --listen") ||
      !frt::cli::Require(args.output.empty() != args.output_dir.empty(),
                         "exactly one of --output or --output-dir is "
                         "required") ||
      !frt::cli::ValidateInputFeeds(args.local.inputs) ||
      !frt::cli::MakeServiceConfig(args.common, &config)) {
    frt::cli::PrintUsage(argv[0], flags);
    return 2;
  }
  config.max_in_flight = args.max_in_flight;
  config.idle_evict_ms = args.evict_idle_ms;
  // Blocked before any thread starts, so only the sigwait below takes them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  if (!args.listen.empty()) pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  frt::cli::StartTracing(args.common.obs);

  // ---- Output plumbing (called from the dispatcher thread only). ----
  std::ofstream merged_file;
  std::ostream* merged = nullptr;
  if (!args.output.empty()) {
    if (args.output == "-") {
      merged = &std::cout;
    } else {
      merged_file.open(args.output, std::ios::trunc);
      if (!merged_file.is_open()) {
        std::fprintf(stderr, "cannot open output: %s\n",
                     args.output.c_str());
        return 1;
      }
      merged = &merged_file;
    }
  }
  std::map<std::string, std::unique_ptr<std::ofstream>> per_feed_out;
  bool wrote_merged_header = false;
  auto sink = [&](const std::string& feed, const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
    std::ostream* out = nullptr;
    if (merged != nullptr) {
      out = merged;
      if (!wrote_merged_header) {
        *out << "# feed,traj_id,x,y,t\n";
        wrote_merged_header = true;
      }
      const std::string prefix = feed + ",";
      for (const auto& t : published.trajectories()) {
        frt::WriteTrajectoryCsv(t, *out, prefix);
      }
    } else {
      auto it = per_feed_out.find(feed);
      if (it == per_feed_out.end()) {
        auto file = std::make_unique<std::ofstream>(
            args.output_dir + "/" + feed + ".csv", std::ios::trunc);
        if (!file->is_open()) {
          return frt::Status::IOError("cannot open " + args.output_dir +
                                      "/" + feed + ".csv");
        }
        *file << "# traj_id,x,y,t\n";
        it = per_feed_out.emplace(feed, std::move(file)).first;
      }
      for (const auto& t : published.trajectories()) {
        frt::WriteTrajectoryCsv(t, *it->second);
      }
      out = it->second.get();
    }
    out->flush();
    if (!out->good()) return frt::Status::IOError("write failed");
    std::fprintf(stderr,
                 "feed %s window %zu: %zu trajs, eps=%.2f (total %.2f), "
                 "%s-closed, wait %.1f ms, publish %.1f ms\n",
                 feed.c_str(), window.index, window.trajectories,
                 window.epsilon_spent, window.epsilon_total,
                 window.close_reason == frt::WindowClose::kCount
                     ? "count"
                     : (window.close_reason == frt::WindowClose::kDeadline
                            ? "deadline"
                            : "final"),
                 window.close_wait_ms, window.publish_latency_ms);
    frt::cli::PrintAuditReport(window.batch.audit);
    return frt::Status::OK();
  };

  frt::ServiceDispatcher service(std::move(config), sink);
  if (auto st = service.Start(args.common.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }
  // Declared after the service: both reference it.
  std::unique_ptr<frt::MetricsExporter> metrics;
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (auto st = frt::cli::StartObservability(args.common, service, &metrics,
                                             &admin);
      !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Ingest. ----
  frt::Status ingest_status = frt::Status::OK();
  if (!args.listen.empty()) {
    frt::net::IngressServer::Options ingress_options;
    // The --listen setter already validated the spelling.
    ingress_options.endpoint = *frt::net::ParseEndpoint(args.listen);
    ingress_options.max_connections =
        static_cast<size_t>(args.listen_conns);
    ingress_options.registry = &frt::obs::Registry::Default();
    frt::net::IngressServer ingress(
        ingress_options,
        [&service](std::string feed, frt::Trajectory t) {
          return service.Offer(std::move(feed), std::move(t));
        },
        [&service](const std::string& feed, const std::string& reason) {
          service.OfferQuarantine(feed, reason);
        });
    if (auto st = ingress.Start(); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: listening on %s%s\n",
                 args.listen.c_str(), args.listen_conns > 0
                     ? ""
                     : " (stop with SIGINT/SIGTERM)");
    std::thread stopper([&] {
      int sig = 0;
      sigwait(&stop_signals, &sig);
      ingress.Stop();
    });
    ingress.Wait();
    // Wakes the waiter when --listen-conns, not a signal, ended ingress.
    pthread_kill(stopper.native_handle(), SIGTERM);
    stopper.join();
    const frt::net::IngressServer::Stats stats = ingress.stats();
    std::fprintf(stderr,
                 "ingress: %llu connection(s), %llu frame(s), %llu "
                 "trajectories, %llu quarantine event(s)\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.frames),
                 static_cast<unsigned long long>(stats.trajectories),
                 static_cast<unsigned long long>(stats.quarantine_events));
  } else {
    ingest_status =
        frt::cli::IngestLocalFeeds(args.local, service);
  }

  frt::Status run_status = service.Finish();
  frt::cli::FinishObservability(args.common.obs, metrics.get(), &run_status);
  if (run_status.ok()) run_status = ingest_status;
  if (!run_status.ok()) {
    std::fprintf(stderr, "serve: %s\n", run_status.ToString().c_str());
    return 1;
  }

  // ---- Reports. ----
  const frt::ServiceSnapshot& report = service.report();
  const bool per_object = args.common.stream.per_object_budget > 0.0;
  for (const frt::ServiceSnapshot::Feed* feed :
       frt::cli::FeedsById(report)) {
    const frt::StreamReport& s = feed->stream;
    std::fprintf(stderr,
                 "feed %s: %zu windows published (%zu trajs), %zu refused "
                 "(%zu trajs), %zu evicted, %zu deadline-closed, eps %s "
                 "%.2f, %llu session(s), close-wait p50/p99/max "
                 "%.1f/%.1f/%.1f ms, publish p50/p99/max %.1f/%.1f/%.1f "
                 "ms%s\n",
                 feed->feed.c_str(), s.windows_published,
                 s.trajectories_published, s.windows_refused,
                 s.trajectories_refused, s.trajectories_evicted,
                 s.windows_deadline_closed,
                 per_object ? "max-object" : "ledger", s.epsilon_spent,
                 static_cast<unsigned long long>(feed->sessions),
                 feed->close_wait.p50_ms, feed->close_wait.p99_ms,
                 feed->close_wait.max_ms, feed->publish.p50_ms,
                 feed->publish.p99_ms, feed->publish.max_ms,
                 feed->quarantined
                     ? " [quarantined]"
                     : (feed->evicted ? " [idle-evicted]" : ""));
  }
  const frt::StageSummary& close_wait = report.stages[frt::kStageCloseWait];
  const frt::StageSummary& publish = report.stages[frt::kStagePublish];
  std::fprintf(
      stderr,
      "serve done in %.1fs: %zu feeds, %zu sessions (peak %zu active, %zu "
      "evicted), %zu windows published / %zu refused (%zu "
      "deadline-closed), %zu trajs in / %zu published, close-wait "
      "p50/p99/max %.1f/%.1f/%.1f ms, publish p50/p99/max %.1f/%.1f/%.1f "
      "ms\n",
      static_cast<double>(report.uptime_ms) / 1000.0, report.feeds,
      report.sessions_created, report.peak_active_sessions,
      report.sessions_evicted, report.windows_published,
      report.windows_refused, report.windows_deadline_closed,
      report.trajectories_in, report.trajectories_published,
      close_wait.p50_ms, close_wait.p99_ms, close_wait.max_ms,
      publish.p50_ms, publish.p99_ms, publish.max_ms);
  frt::cli::PrintDurability(args.common.durability, report);
  return frt::cli::ReportOutcome(report);
}
