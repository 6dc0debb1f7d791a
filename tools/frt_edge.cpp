// frt_edge — edge-side anonymizer of the distributed ingress tier.
//
// Reads local trajectory input, runs the full multi-feed anonymization
// service locally (window assembly, per-feed DP budgets, deterministic
// RNG streams — exactly what frt_serve does), and forwards every
// PUBLISHED window upstream to an frt_serve aggregator as framed binary
// trajectories (net/frame.h):
//
//   frt_serve --listen unix:/tmp/frt.sock --listen-conns 2 --output - &
//   frt_edge --feeds site_a.csv --connect unix:/tmp/frt.sock
//   frt_edge --input b=site_b.csv --connect unix:/tmp/frt.sock
//
// Only anonymized trajectories ever leave the edge — raw input never
// crosses the wire. Doubles travel as IEEE-754 bit patterns, so what the
// aggregator receives is bit-identical to the edge's local output.
// Backpressure is the kernel's: when the aggregator falls behind, its
// reader stops draining the socket and the edge's writes block.
//
// --threads sizes the worker pool the feeds' window jobs share, as in
// frt_serve (default 0 = max(2, cores)).
//
// The connection opens with a kHello frame carrying --hello NAME (default
// "edge") for the aggregator's diagnostics and closes with a kBye frame;
// a missing kBye tells the aggregator the edge died mid-stream. Each
// forwarded window is wrapped in a "forward" span (category "net") when
// --trace-out is armed.
//
// --inject-corrupt-frame N is a FAULT-INJECTION TEST HOOK: it flips one
// payload byte of the Nth trajectory frame after the CRC was computed, so
// the aggregator sees a CRC mismatch and quarantines this edge's feeds.
// Never use it outside tests.
//
// Exit codes: 0 = every window published and forwarded; 3 = completed but
// at least one feed had a window refused (or object evicted) on budget,
// or was quarantined locally; 1 = runtime error (including a dead
// upstream); 2 = usage error.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "frt.h"
#include "net/frame.h"
#include "service_cli.h"

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  // An aggregator vanishing mid-write must surface as an IOError from the
  // sink, never a process-wide SIGPIPE (WriteAll also sends MSG_NOSIGNAL;
  // this covers any other stray write).
  std::signal(SIGPIPE, SIG_IGN);
  frt::cli::EdgeArgs args;
  const frt::cli::FlagTable flags = frt::cli::EdgeFlags(&args);
  frt::ServiceConfig config;
  if (!frt::cli::ParseFlags(argc, argv, flags) ||
      !frt::cli::Require(!args.connect.empty(),
                         "--connect EP is required (the aggregator)") ||
      !frt::cli::Require(args.local.feeds.empty() != args.local.inputs.empty(),
                         "exactly one of --feeds or --input (repeatable) is "
                         "required") ||
      !frt::cli::ValidateInputFeeds(args.local.inputs) ||
      !frt::cli::MakeServiceConfig(args.common, &config)) {
    frt::cli::PrintUsage(argv[0], flags);
    return 2;
  }
  frt::cli::StartTracing(args.common.obs);

  // ---- Upstream connection (written by the dispatcher thread only once
  // the service starts; hello/bye bracket it from this thread while the
  // dispatcher is not running). ----
  // The --connect setter already validated the spelling.
  auto conn = frt::net::ConnectTo(*frt::net::ParseEndpoint(args.connect));
  if (!conn.ok()) {
    std::fprintf(stderr, "edge: cannot reach aggregator: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  frt::net::Socket upstream = *std::move(conn);
  {
    std::string hello;
    frt::net::AppendFrame(&hello, frt::net::FrameType::kHello, args.hello);
    if (auto st = frt::net::WriteAll(upstream.fd(), hello.data(),
                                     hello.size());
        !st.ok()) {
      std::fprintf(stderr, "edge: hello failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // ---- Forwarding sink (called from the dispatcher thread only). ----
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t trajectory_frames = 0;  // numbering for --inject-corrupt-frame
  auto sink = [&](const std::string& feed, const frt::Dataset& published,
                  const frt::WindowReport& window) -> frt::Status {
    frt::obs::ScopedSpan span("forward", frt::obs::SpanCategory::kNet,
                              feed);
    // One buffered write per window: frames of one window arrive at the
    // aggregator back to back, and a mid-window disconnect still fails
    // this window's publish.
    std::string batch;
    for (const auto& t : published.trajectories()) {
      const size_t frame_start = batch.size();
      frt::net::AppendFrame(
          &batch, frt::net::FrameType::kTrajectory,
          frt::net::EncodeTrajectoryPayload(feed, t));
      ++trajectory_frames;
      if (args.inject_corrupt_frame != 0 &&
          trajectory_frames == args.inject_corrupt_frame) {
        // Flip one payload byte AFTER the CRC was computed: the receiver
        // must detect the mismatch and quarantine this edge's feeds.
        batch[frame_start + frt::net::kFrameHeaderSize] ^=
            static_cast<char>(0xFF);
        std::fprintf(stderr,
                     "edge: injected corrupt payload byte into trajectory "
                     "frame %llu (feed %s)\n",
                     static_cast<unsigned long long>(trajectory_frames),
                     feed.c_str());
      }
      ++frames_sent;
    }
    if (auto st = frt::net::WriteAll(upstream.fd(), batch.data(),
                                     batch.size());
        !st.ok()) {
      return frt::Status::IOError("forward to aggregator failed: " +
                                  std::string(st.message()));
    }
    bytes_sent += batch.size();
    std::fprintf(stderr,
                 "feed %s window %zu: forwarded %zu trajs, eps=%.2f "
                 "(total %.2f)\n",
                 feed.c_str(), window.index, window.trajectories,
                 window.epsilon_spent, window.epsilon_total);
    return frt::Status::OK();
  };

  frt::ServiceDispatcher service(std::move(config), sink);
  if (auto st = service.Start(args.common.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "edge: %s\n", st.ToString().c_str());
    return 1;
  }
  // Declared after the service: both reference it.
  std::unique_ptr<frt::MetricsExporter> metrics;
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (auto st = frt::cli::StartObservability(args.common, service, &metrics,
                                             &admin);
      !st.ok()) {
    std::fprintf(stderr, "edge: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Ingest (same shapes as frt_serve). ----
  const frt::Status ingest_status =
      frt::cli::IngestLocalFeeds(args.local, service);
  frt::Status run_status = service.Finish();
  // The dispatcher is joined; close the stream from this thread. A failed
  // bye is a warning, not an error — every published window already made
  // it upstream (WriteAll returned), only the goodbye was lost.
  {
    std::string bye;
    frt::net::AppendFrame(&bye, frt::net::FrameType::kBye, {});
    if (auto st = frt::net::WriteAll(upstream.fd(), bye.data(), bye.size());
        !st.ok()) {
      std::fprintf(stderr, "edge: bye failed (ignored): %s\n",
                   st.ToString().c_str());
    }
  }
  upstream.Close();

  frt::cli::FinishObservability(args.common.obs, metrics.get(), &run_status);
  if (run_status.ok()) run_status = ingest_status;
  if (!run_status.ok()) {
    std::fprintf(stderr, "edge: %s\n", run_status.ToString().c_str());
    return 1;
  }

  // ---- Reports. ----
  const frt::ServiceSnapshot& report = service.report();
  std::fprintf(
      stderr,
      "edge done in %.1fs: %zu feeds, %zu windows published / %zu refused, "
      "%zu trajs in / %zu forwarded (%llu frames, %llu bytes) to %s\n",
      static_cast<double>(report.uptime_ms) / 1000.0, report.feeds, report.windows_published,
      report.windows_refused, report.trajectories_in,
      report.trajectories_published,
      static_cast<unsigned long long>(frames_sent),
      static_cast<unsigned long long>(bytes_sent),
      args.connect.c_str());
  frt::cli::PrintDurability(args.common.durability, report);
  return frt::cli::ReportOutcome(report);
}
