// frt_serve — multi-feed trajectory anonymization service.
//
// Serves many independent trajectory feeds through one shared worker pool
// with per-feed DP budgets (src/service). Feeds arrive either interleaved
// in one multi-feed CSV with a leading feed column, or as one classic
// dataset CSV per feed:
//
//   frt_serve --feeds feeds.csv --output-dir out/       # feed,traj_id,x,y,t
//   frt_serve --input city_a.csv --input b=taxi_b.csv --output -
//   frt_serve --listen unix:/tmp/frt.sock --listen-conns 2 --output -
//
// With --listen the service becomes the aggregator of the distributed
// ingress tier (src/net): frt_edge processes connect over a Unix or TCP
// socket and stream framed trajectories in. Backpressure is the
// dispatcher's bounded arrival queue — a slow aggregator blocks the
// reader, fills the kernel buffers, and stalls the edge's writes. A
// malformed or corrupt frame quarantines the feeds on that connection
// (their output stops at the fault; exit code 3) without disturbing any
// other feed. --listen-conns N exits cleanly after N edge streams end;
// otherwise stop ingest with SIGINT/SIGTERM and the service drains.
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
//   frt_serve (--feeds FILE|- | --input [NAME=]FILE ...)
//       (--output FILE|- | --output-dir DIR)
//       [--evict-idle-ms 0] [--pool-threads 0] [--max-in-flight 0]
//       [durability flags: --state-dir --checkpoint-interval-ms
//        --metrics --metrics-interval-ms --metrics-per-feed]
//       [observability flags: --trace-out --trace-buffer-events
//        --metrics-histograms --admin-listen]
//       [stream flags: --window --stride --budget --per-object-budget
//        --evict-exhausted --queue --close-after-ms ...]
//       [pipeline flags: --epsilon-global --epsilon-local --m --strategy
//        --order --seed --shards ...]
//
// With --state-dir the per-feed budget ledgers are checkpointed durably
// (write-ahead of every publish) and recovered on the next start through
// the same conservative carry path idle eviction uses — a crash or
// restart never re-grants spent epsilon. --metrics appends one
// machine-readable frt_metrics line per interval (see
// service/metrics_exporter.h).
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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "common/strings.h"
#include "frt.h"
#include "net/ingress.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/dispatcher.h"
#include "stream/ingest.h"
#include "traj/io.h"

namespace {

struct Args {
  std::string feeds;                             // --feeds FILE|-
  std::vector<std::pair<std::string, std::string>> inputs;  // name, path
  std::string output;      // --output FILE|-
  std::string output_dir;  // --output-dir DIR
  long long evict_idle_ms = 0;
  unsigned pool_threads = 0;
  size_t max_in_flight = 0;
  frt::cli::StreamArgs stream;
  frt::cli::PipelineArgs pipeline;
  frt::cli::DurabilityArgs durability;
  frt::cli::ObservabilityArgs obs;
  frt::cli::TransportArgs transport;
};

/// The ingress server a SIGINT/SIGTERM should stop (Stop() is one atomic
/// store plus a shutdown(2) — both async-signal-safe).
std::atomic<frt::net::IngressServer*> g_ingress{nullptr};

void StopIngressOnSignal(int) {
  if (frt::net::IngressServer* ingress =
          g_ingress.load(std::memory_order_acquire)) {
    ingress->Stop();
  }
}

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s (--feeds FILE|- | --input [NAME=]FILE ... | --listen EP)\n"
      "          (--output FILE|- | --output-dir DIR) [options]\n"
      "  --feeds FILE|-       interleaved multi-feed CSV "
      "(feed,traj_id,x,y,t)\n"
      "  --input [NAME=]FILE  one dataset CSV per feed (repeatable); feed "
      "id is\n"
      "                       NAME or the file stem\n"
      "  --output FILE|-      merged multi-feed CSV output\n"
      "  --output-dir DIR     one <feed>.csv per feed (DIR must exist)\n"
      "  --evict-idle-ms N    flush + evict sessions idle for N ms "
      "(default 0 = never)\n"
      "  --pool-threads N     shared worker pool size (default 0 = "
      "max(2, cores))\n"
      "  --max-in-flight N    concurrent window jobs across feeds "
      "(default 0 = 2x pool)\n"
      "%s%s%s%s%s",
      prog, frt::cli::TransportUsageText(), frt::cli::DurabilityUsageText(),
      frt::cli::ObservabilityUsageText(), frt::cli::StreamUsageText(),
      frt::cli::PipelineUsageText());
}

std::string FeedNameFromPath(const std::string& path) {
  size_t begin = path.find_last_of("/\\");
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = path.rfind('.');
  if (end == std::string::npos || end <= begin) end = path.size();
  return path.substr(begin, end - begin);
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
    switch (frt::cli::ParseTransportFlag(argc, argv, &i, &args->transport)) {
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
    if (std::strcmp(argv[i], "--feeds") == 0) {
      if ((v = next("--feeds")) == nullptr) return false;
      args->feeds = v;
    } else if (std::strcmp(argv[i], "--input") == 0) {
      if ((v = next("--input")) == nullptr) return false;
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq != std::string::npos && eq > 0) {
        args->inputs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      } else {
        args->inputs.emplace_back(FeedNameFromPath(spec), spec);
      }
    } else if (std::strcmp(argv[i], "--output") == 0) {
      if ((v = next("--output")) == nullptr) return false;
      args->output = v;
    } else if (std::strcmp(argv[i], "--output-dir") == 0) {
      if ((v = next("--output-dir")) == nullptr) return false;
      args->output_dir = v;
    } else if (std::strcmp(argv[i], "--evict-idle-ms") == 0) {
      if ((v = next("--evict-idle-ms")) == nullptr) return false;
      int64_t n = 0;
      if (!frt::cli::ParseFlagInt64("--evict-idle-ms", v, &n)) return false;
      if (n < 0) {
        std::fprintf(stderr, "--evict-idle-ms must be >= 0\n");
        return false;
      }
      args->evict_idle_ms = n;
    } else if (std::strcmp(argv[i], "--pool-threads") == 0) {
      if ((v = next("--pool-threads")) == nullptr) return false;
      uint64_t n = 0;
      if (!frt::cli::ParseFlagUint64("--pool-threads", v, &n)) return false;
      args->pool_threads = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--max-in-flight") == 0) {
      if ((v = next("--max-in-flight")) == nullptr) return false;
      uint64_t n = 0;
      if (!frt::cli::ParseFlagUint64("--max-in-flight", v, &n)) {
        return false;
      }
      args->max_in_flight = static_cast<size_t>(n);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (!args->transport.connect.empty()) {
    // Serve is the aggregator end of the transport; edges connect to it.
    std::fprintf(stderr,
                 "frt_serve does not take --connect (use frt_edge to "
                 "forward into a serving aggregator)\n");
    return false;
  }
  const int sources = (args->feeds.empty() ? 0 : 1) +
                      (args->inputs.empty() ? 0 : 1) +
                      (args->transport.listen.empty() ? 0 : 1);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --feeds, --input (repeatable), or "
                 "--listen is required\n");
    return false;
  }
  if (args->output.empty() == args->output_dir.empty()) {
    std::fprintf(stderr,
                 "exactly one of --output or --output-dir is required\n");
    return false;
  }
  std::set<std::string> seen;
  for (const auto& [name, path] : args->inputs) {
    if (name.empty()) {
      std::fprintf(stderr, "empty feed name for --input %s\n", path.c_str());
      return false;
    }
    if (!seen.insert(name).second) {
      // Two readers racing arrivals into one session would make window
      // composition depend on thread interleaving.
      std::fprintf(stderr,
                   "duplicate feed name '%s' (from --input %s); use "
                   "NAME=FILE to disambiguate\n",
                   name.c_str(), path.c_str());
      return false;
    }
  }
  return true;
}

/// /feedz JSON from the dispatcher's introspection board. The epsilon
/// fields are emitted as strings with the exact frt_feed line formats
/// (eps_spent %.6f, eps_remaining %g), so a scrape taken after shutdown
/// is bit-identical to the final per-feed report lines — and "inf" never
/// produces an invalid JSON number.
std::string RenderFeedz(const frt::ServiceIntrospection& intro) {
  std::string out = frt::StrFormat(
      "{\"seq\":%llu,\"uptime_ms\":%lld,\"finished\":%s,\"aborted\":%s,"
      "\"feeds\":%zu,\"active_sessions\":%zu,\"queue_depth\":%zu,"
      "\"backlog_windows\":%zu,\"in_flight\":%zu,"
      "\"feeds_quarantined\":%zu,\"feed\":[",
      static_cast<unsigned long long>(intro.seq),
      static_cast<long long>(intro.uptime_ms),
      intro.finished ? "true" : "false", intro.aborted ? "true" : "false",
      intro.feeds, intro.active_sessions, intro.queue_depth,
      intro.backlog_windows, intro.in_flight, intro.feeds_quarantined);
  bool first = true;
  for (const frt::ServiceIntrospection::Feed& feed : intro.feeds_detail) {
    if (!first) out += ',';
    first = false;
    out += frt::StrFormat(
        "{\"feed\":\"%s\",\"eps_spent\":\"%.6f\",\"eps_remaining\":\"%g\","
        "\"windows_published\":%zu,\"windows_refused\":%zu,\"backlog\":%zu,"
        "\"quarantined\":%s",
        frt::obs::JsonEscape(feed.feed).c_str(), feed.epsilon_spent,
        feed.epsilon_remaining, feed.windows_published,
        feed.windows_refused, feed.backlog,
        feed.quarantined ? "true" : "false");
    if (feed.quarantined) {
      out += ",\"quarantine_reason\":\"" +
             frt::obs::JsonEscape(feed.quarantine_reason) + "\"";
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

/// Streams the interleaved multi-feed CSV (`feed,traj_id,x,y,t`) into the
/// dispatcher. Per feed, consecutive same-id lines form one trajectory —
/// the same contiguity contract the single-feed format has always had,
/// applied per feed so distinct feeds may interleave freely.
frt::Status IngestMultiFeedCsv(std::istream& in,
                               frt::ServiceDispatcher& service) {
  struct Assembly {
    frt::Trajectory current{0};
    bool has_current = false;
  };
  std::map<std::string, Assembly> assemblies;
  std::vector<std::string> order;
  std::string line;
  size_t lineno = 0;
  bool stopped = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const size_t comma = line.find(',');
    if (comma == std::string::npos || comma == 0) {
      return frt::Status::InvalidArgument(
          "line " + std::to_string(lineno) +
          ": expected feed,traj_id,x,y,t");
    }
    const std::string feed = line.substr(0, comma);
    FRT_ASSIGN_OR_RETURN(
        const std::optional<frt::CsvRecord> record,
        frt::ParseCsvRecord(
            std::string_view(line).substr(comma + 1), lineno));
    if (!record.has_value()) continue;
    auto [it, inserted] = assemblies.try_emplace(feed);
    if (inserted) order.push_back(feed);
    Assembly& assembly = it->second;
    if (assembly.has_current && assembly.current.id() != record->id) {
      if (!service.Offer(feed, std::move(assembly.current))) {
        stopped = true;  // service aborted; stop reading
        break;
      }
      assembly.has_current = false;
    }
    if (!assembly.has_current) {
      assembly.current = frt::Trajectory(record->id);
      assembly.has_current = true;
    }
    assembly.current.Append(record->p, record->t);
  }
  if (!stopped) {
    for (const auto& feed : order) {
      Assembly& assembly = assemblies[feed];
      if (assembly.has_current && !assembly.current.empty()) {
        if (!service.Offer(feed, std::move(assembly.current))) break;
      }
    }
  }
  return frt::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::ios::sync_with_stdio(false);
  // cin is tied to cout by default, so every read on the ingest thread
  // would flush cout — racing the dispatcher writing published rows to it
  // (--feeds - --output -) and tearing rows.
  std::cin.tie(nullptr);
  // A peer vanishing mid-write must surface as an I/O error on that one
  // connection, never a process-wide SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
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
  // Resolve the listen endpoint before anything heavyweight starts so a
  // bad --listen is a usage error, not a mid-run failure.
  std::optional<frt::net::Endpoint> listen_endpoint;
  if (!args.transport.listen.empty()) {
    auto endpoint = frt::net::ParseEndpoint(args.transport.listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   endpoint.status().ToString().c_str());
      Usage(argv[0]);
      return 2;
    }
    listen_endpoint = *std::move(endpoint);
  }
  std::optional<frt::net::Endpoint> admin_endpoint;
  if (!args.obs.admin_listen.empty()) {
    auto endpoint = frt::net::ParseEndpoint(args.obs.admin_listen);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   endpoint.status().ToString().c_str());
      Usage(argv[0]);
      return 2;
    }
    admin_endpoint = *std::move(endpoint);
  }
  frt::ServiceConfig config;
  if (!frt::cli::MakeStreamConfig(args.stream, args.pipeline,
                                  pipeline_config, &config.stream)) {
    Usage(argv[0]);
    return 2;
  }
  config.pool_threads = args.pool_threads;
  config.max_in_flight = args.max_in_flight;
  config.idle_evict_ms = args.evict_idle_ms;
  // The shared --queue flag bounds the service's tagged arrival queue
  // (per-session queues do not exist; backpressure is at the dispatcher).
  config.arrival_queue_capacity = config.stream.queue_capacity;
  config.state_dir = args.durability.state_dir;
  config.checkpoint_interval_ms = args.durability.checkpoint_interval_ms;

  // Arm span tracing before any ingest/service thread starts so the trace
  // covers the whole run.
  if (!args.obs.trace_out.empty()) {
    frt::obs::TraceRecorder::Options trace_options;
    trace_options.buffer_events =
        static_cast<size_t>(args.obs.trace_buffer_events);
    frt::obs::TraceRecorder::Get().Start(trace_options);
    frt::obs::SetTraceThreadName("main");
  }

  // The exporter outlives the service (the dispatcher thread publishes
  // into it until Finish), so it is declared first and stopped last.
  std::unique_ptr<frt::MetricsExporter> metrics;
  if (!args.durability.metrics.empty()) {
    metrics = std::make_unique<frt::MetricsExporter>(
        frt::cli::MakeMetricsOptions(args.durability, args.obs));
    if (auto st = metrics->Start(); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    config.metrics = metrics.get();
    config.metrics_interval_ms = args.durability.metrics_interval_ms;
  }

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
  if (auto st = service.Start(args.pipeline.seed); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Admin plane (--admin-listen). Declared after the service so it
  // is destroyed (and its thread joined) before the service goes away;
  // handlers read only the registry and the introspection board. ----
  std::unique_ptr<frt::obs::AdminServer> admin;
  if (admin_endpoint.has_value()) {
    frt::obs::AdminServer::Options admin_options;
    admin_options.endpoint = *admin_endpoint;
    admin = std::make_unique<frt::obs::AdminServer>(admin_options);
    // Staleness threshold for /healthz and /readyz; follows the metrics
    // interval when /control retunes it.
    auto stale_after_ms = std::make_shared<std::atomic<int64_t>>(
        std::max<int64_t>(5 * args.durability.metrics_interval_ms, 5000));
    admin->Handle(
        "GET", "/healthz",
        [&service, stale_after_ms](const frt::obs::HttpRequest&) {
          frt::obs::HttpResponse r;
          const auto intro = service.Introspect();
          if (intro == nullptr) {
            r.status = 503;
            r.body = "starting\n";
            return r;
          }
          const double age_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - intro->published_at)
                  .count();
          if (!intro->finished &&
              age_ms > static_cast<double>(stale_after_ms->load(
                           std::memory_order_relaxed))) {
            r.status = 503;
            r.body = frt::StrFormat(
                "stale: introspection board is %.0f ms old (seq %llu)\n",
                age_ms, static_cast<unsigned long long>(intro->seq));
            return r;
          }
          r.body = "ok\n";
          return r;
        });
    admin->Handle(
        "GET", "/readyz",
        [&service, stale_after_ms](const frt::obs::HttpRequest&) {
          frt::obs::HttpResponse r;
          const auto intro = service.Introspect();
          if (intro == nullptr) {
            r.status = 503;
            r.body = "starting\n";
            return r;
          }
          if (intro->aborted || intro->finished) {
            r.status = 503;
            r.body = intro->aborted ? "aborted\n" : "finished\n";
            return r;
          }
          const double age_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - intro->published_at)
                  .count();
          if (age_ms > static_cast<double>(stale_after_ms->load(
                           std::memory_order_relaxed))) {
            r.status = 503;
            r.body = "stale\n";
            return r;
          }
          r.body = "ready\n";
          return r;
        });
    admin->Handle("GET", "/feedz",
                  [&service](const frt::obs::HttpRequest&) {
                    frt::obs::HttpResponse r;
                    r.content_type = "application/json";
                    const auto intro = service.Introspect();
                    if (intro == nullptr) {
                      r.status = 503;
                      r.body = "{\"error\":\"starting\"}\n";
                      return r;
                    }
                    r.body = RenderFeedz(*intro);
                    return r;
                  });
    frt::obs::ControlHooks hooks;
    hooks.trace_out = args.obs.trace_out;
    hooks.trace_buffer_events =
        static_cast<size_t>(args.obs.trace_buffer_events);
    frt::MetricsExporter* exporter = metrics.get();
    frt::ServiceDispatcher* service_ptr = &service;
    hooks.set_metrics_interval_ms = [service_ptr, exporter,
                                     stale_after_ms](int64_t ms) {
      service_ptr->SetMetricsIntervalMs(ms);
      if (exporter != nullptr) exporter->SetIntervalMs(ms);
      stale_after_ms->store(std::max<int64_t>(5 * ms, 5000),
                            std::memory_order_relaxed);
      return true;
    };
    admin->Handle("POST", "/control",
                  frt::obs::MakeControlHandler(std::move(hooks)));
    if (auto st = admin->Start(); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: admin plane on %s\n",
                 args.obs.admin_listen.c_str());
  }

  // ---- Ingest. ----
  frt::Status ingest_status = frt::Status::OK();
  if (listen_endpoint.has_value()) {
    frt::net::IngressServer::Options ingress_options;
    ingress_options.endpoint = *listen_endpoint;
    ingress_options.max_connections =
        static_cast<size_t>(args.transport.listen_conns);
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
                 args.transport.listen.c_str(),
                 args.transport.listen_conns > 0
                     ? ""
                     : " (stop with SIGINT/SIGTERM)");
    g_ingress.store(&ingress, std::memory_order_release);
    std::signal(SIGINT, StopIngressOnSignal);
    std::signal(SIGTERM, StopIngressOnSignal);
    ingress.Wait();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_ingress.store(nullptr, std::memory_order_release);
    const frt::net::IngressServer::Stats& stats = ingress.stats();
    std::fprintf(stderr,
                 "ingress: %llu connection(s), %llu frame(s), %llu "
                 "trajectories, %llu quarantine event(s)\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.frames),
                 static_cast<unsigned long long>(stats.trajectories),
                 static_cast<unsigned long long>(stats.quarantine_events));
  } else if (!args.feeds.empty()) {
    std::ifstream feeds_file;
    if (args.feeds != "-") {
      feeds_file.open(args.feeds);
      if (!feeds_file.is_open()) {
        std::fprintf(stderr, "cannot open feeds: %s\n", args.feeds.c_str());
        return 1;
      }
    }
    std::istream& in = args.feeds == "-" ? std::cin : feeds_file;
    ingest_status = IngestMultiFeedCsv(in, service);
  } else {
    // One ingest thread per input file; each drives its own feed.
    std::vector<frt::Status> statuses(args.inputs.size());
    std::vector<std::thread> readers;
    readers.reserve(args.inputs.size());
    for (size_t i = 0; i < args.inputs.size(); ++i) {
      readers.emplace_back([&, i] {
        const auto& [feed, path] = args.inputs[i];
        std::ifstream file(path);
        if (!file.is_open()) {
          statuses[i] = frt::Status::IOError("cannot open input: " + path);
          return;
        }
        frt::TrajectoryReader reader(file);
        for (;;) {
          auto next = reader.Next();
          if (!next.ok()) {
            statuses[i] = next.status();
            return;
          }
          if (!next->has_value()) return;
          if (!service.Offer(feed, std::move(**next))) return;
        }
      });
    }
    for (auto& t : readers) t.join();
    for (auto& st : statuses) {
      if (!st.ok()) {
        ingest_status = st;
        break;
      }
    }
  }

  frt::Status run_status = service.Finish();
  if (metrics) metrics->Stop();  // flush the final frt_metrics line
  if (!args.obs.trace_out.empty()) {
    // Everything is quiesced (Finish joined the pool and dispatcher), so
    // the dump is complete.
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
  if (run_status.ok()) run_status = ingest_status;
  if (!run_status.ok()) {
    std::fprintf(stderr, "serve: %s\n", run_status.ToString().c_str());
    return 1;
  }

  // ---- Reports. ----
  const frt::ServiceReport& report = service.report();
  const bool per_object =
      args.stream.per_object_budget > 0.0;
  for (const frt::FeedReport& feed : report.feeds_report) {
    const frt::StreamReport& s = feed.stream;
    std::fprintf(stderr,
                 "feed %s: %zu windows published (%zu trajs), %zu refused "
                 "(%zu trajs), %zu evicted, %zu deadline-closed, eps %s "
                 "%.2f, %llu session(s), close-wait p50/p99/max "
                 "%.1f/%.1f/%.1f ms, publish p50/p99/max %.1f/%.1f/%.1f "
                 "ms%s\n",
                 feed.feed.c_str(), s.windows_published,
                 s.trajectories_published, s.windows_refused,
                 s.trajectories_refused, s.trajectories_evicted,
                 s.windows_deadline_closed,
                 per_object ? "max-object" : "ledger", s.epsilon_spent,
                 static_cast<unsigned long long>(feed.sessions),
                 feed.close_wait_p50_ms, feed.close_wait_p99_ms,
                 feed.close_wait_max_ms, feed.publish_p50_ms,
                 feed.publish_p99_ms, feed.publish_max_ms,
                 feed.quarantined
                     ? " [quarantined]"
                     : (feed.evicted ? " [idle-evicted]" : ""));
  }
  for (const frt::FeedReport& feed : report.feeds_report) {
    if (feed.quarantined) {
      std::fprintf(stderr, "quarantine: feed %s: %s\n", feed.feed.c_str(),
                   feed.quarantine_reason.c_str());
    }
  }
  std::fprintf(
      stderr,
      "serve done in %.1fs: %zu feeds, %zu sessions (peak %zu active, %zu "
      "evicted), %zu windows published / %zu refused (%zu "
      "deadline-closed), %zu trajs in / %zu published, close-wait "
      "p50/p99/max %.1f/%.1f/%.1f ms, publish p50/p99/max %.1f/%.1f/%.1f "
      "ms\n",
      report.wall_seconds, report.feeds, report.sessions_created,
      report.peak_active_sessions, report.sessions_evicted,
      report.windows_published, report.windows_refused,
      report.windows_deadline_closed, report.trajectories_in,
      report.trajectories_published, report.close_wait_p50_ms,
      report.close_wait_p99_ms, report.close_wait_max_ms,
      report.publish_p50_ms, report.publish_p99_ms, report.publish_max_ms);
  if (!args.durability.state_dir.empty()) {
    std::fprintf(
        stderr,
        "durability: recovered %zu feed(s) from %s, wrote %zu "
        "checkpoint(s) (last seq %llu)\n",
        report.feeds_recovered, args.durability.state_dir.c_str(),
        report.checkpoints_written,
        static_cast<unsigned long long>(report.checkpoint_sequence));
  }
  int exit_code = 0;
  if (report.feeds_quarantined > 0) {
    std::fprintf(stderr,
                 "%zu feed(s) quarantined: their streams were cut off at "
                 "the fault; every other feed published normally\n",
                 report.feeds_quarantined);
    exit_code = 3;
  }
  if (frt::ServiceHadRefusals(report)) {
    std::fprintf(stderr,
                 "budget exhausted on at least one feed: %zu window(s) / "
                 "%zu trajectories refused, %zu evicted; raise the budget "
                 "or lower the per-window epsilons\n",
                 report.windows_refused, report.trajectories_refused,
                 report.trajectories_evicted);
    exit_code = 3;
  }
  return exit_code;
}
