// Wiring shared by the CLIs that run a ServiceDispatcher — frt_serve,
// frt_edge, and frt_stream (a one-feed service) — kept in one place so the
// three cannot drift apart: the shared flag families, each tool's flag
// table, the ServiceConfig they build, local feed ingest, span tracing,
// the metrics exporter, and the admin plane (/metrics /healthz /readyz
// /feedz /control).

#ifndef FRT_TOOLS_SERVICE_CLI_H_
#define FRT_TOOLS_SERVICE_CLI_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "common/deadline.h"
#include "common/strings.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/dispatcher.h"
#include "stream/ingest.h"

namespace frt::cli {

/// The flag families every service CLI accepts.
struct ServiceArgs {
  StreamArgs stream;
  PipelineArgs pipeline;
  DurabilityArgs durability;
  ObservabilityArgs obs;
};

inline std::vector<Flag> ServiceFlags(ServiceArgs* args) {
  return FlagTable{"", DurabilityFlags(&args->durability)}
      .Add(ObservabilityFlags(&args->obs))
      .Add(StreamFlags(&args->stream))
      .Add(PipelineFlags(&args->pipeline))
      .flags;
}

/// \brief Validates the shared flags and fills `config`: the per-feed
/// stream config, the pool size (--threads), the arrival queue (--queue),
/// and durability. Reports to stderr; false = usage error.
inline bool MakeServiceConfig(const ServiceArgs& args,
                              ServiceConfig* config) {
  FrequencyRandomizerConfig pipeline;
  if (!MakePipelineConfig(args.pipeline, &pipeline) ||
      !MakeStreamConfig(args.stream, args.pipeline, pipeline,
                        &config->stream)) {
    return false;
  }
  config->pool_threads = args.pipeline.threads;
  config->arrival_queue_capacity = args.stream.queue;
  config->state_dir = args.durability.state_dir;
  config->checkpoint_interval_ms = args.durability.checkpoint_interval_ms;
  config->metrics_interval_ms = args.durability.metrics_interval_ms;
  config->registry = &obs::Registry::Default();  // what /metrics serves
  return true;
}

// ---- Local feed ingest (--feeds, --input) ----

/// One `--input [NAME=]FILE` feed.
struct InputFeed {
  std::string feed;
  std::string path;  ///< "-" reads stdin
};

/// Feed id of an `--input FILE` given without NAME=: the file stem.
inline std::string FeedNameFromPath(const std::string& path) {
  size_t begin = path.find_last_of("/\\");
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = path.rfind('.');
  if (end == std::string::npos || end <= begin) end = path.size();
  return path.substr(begin, end - begin);
}

/// Parses one `--input [NAME=]FILE` value.
inline InputFeed ParseInputFeed(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq != std::string::npos && eq > 0) {
    return {spec.substr(0, eq), spec.substr(eq + 1)};
  }
  return {FeedNameFromPath(spec), spec};
}

/// The local ingest sources of frt_serve and frt_edge.
struct LocalFeeds {
  std::string feeds;              ///< --feeds FILE|-
  std::vector<InputFeed> inputs;  ///< --input [NAME=]FILE, repeatable
};

inline std::vector<Flag> LocalFeedFlags(LocalFeeds* args) {
  return {
      {"--feeds", "FILE|-",
       "interleaved multi-feed CSV (feed,traj_id,x,y,t)",
       Text(&args->feeds)},
      {"--input", "[NAME=]FILE",
       "one dataset CSV per feed (repeatable); feed id is\n"
       "NAME or the file stem",
       [args](const char*, const char* value) {
         args->inputs.push_back(ParseInputFeed(value));
         return true;
       }},
  };
}

/// Rejects invalid (IsValidFeedId) and duplicate feed names, and a second
/// feed on stdin (reported): two readers racing arrivals into one session
/// would make window composition depend on thread interleaving, and two
/// readers on one stdin would tear its lines.
inline bool ValidateInputFeeds(const std::vector<InputFeed>& inputs) {
  std::set<std::string> seen;
  bool stdin_taken = false;
  for (const InputFeed& input : inputs) {
    if (input.path == "-" && std::exchange(stdin_taken, true)) {
      std::fprintf(stderr, "--input %s=-: only one feed can read stdin\n",
                   input.feed.c_str());
      return false;
    }
    if (!IsValidFeedId(input.feed)) {
      std::fprintf(stderr, "%s for --input %s; use NAME=FILE\n",
                   kFeedIdRule, input.path.c_str());
      return false;
    }
    if (!seen.insert(input.feed).second) {
      std::fprintf(stderr,
                   "duplicate feed name '%s' (from --input %s); use "
                   "NAME=FILE to disambiguate\n",
                   input.feed.c_str(), input.path.c_str());
      return false;
    }
  }
  return true;
}

// ---- The service CLIs' command lines ----

/// frt_stream's command line: one feed, read from --input.
struct StreamCliArgs {
  std::string input;
  std::string output;
  ServiceArgs common;
};

inline FlagTable StreamCliFlags(StreamCliArgs* args) {
  const char* network =
      "frt_stream reads --input (use frt_serve --listen [--listen-conns N] "
      "or frt_edge --connect for the network tier)";
  FlagTable table{"--input FILE|- --output FILE|- [options]",
                  {{"--input", "FILE|-",
                    "dataset CSV of the feed; - reads it from stdin",
                    Text(&args->input)},
                   {"--output", "FILE|-",
                    "published CSV; - writes it to stdout",
                    Text(&args->output)},
                   {"--listen", "", network, nullptr},
                   {"--listen-conns", "", network, nullptr},
                   {"--connect", "", network, nullptr}}};
  return table.Add(ServiceFlags(&args->common));
}

/// frt_serve's command line: local feeds or the aggregator end of the
/// network tier.
struct ServeArgs {
  LocalFeeds local;
  std::string output;      ///< --output FILE|-
  std::string output_dir;  ///< --output-dir DIR
  int64_t evict_idle_ms = 0;
  size_t max_in_flight = 0;
  /// Listen endpoint; empty = local ingest only.
  std::string listen;
  /// With --listen: stop after this many edge connections have drained
  /// (0 = serve until interrupted).
  uint64_t listen_conns = 0;
  ServiceArgs common;
};

inline FlagTable ServeFlags(ServeArgs* args) {
  FlagTable table{
      "(--feeds FILE|- | --input [NAME=]FILE ... | --listen EP)\n"
      "          (--output FILE|- | --output-dir DIR) [options]",
      LocalFeedFlags(&args->local)};
  table.Add({
      {"--output", "FILE|-",
       "merged multi-feed CSV output; windows in completion\n"
       "order, so runs at one --seed match only as sorted rows",
       Text(&args->output)},
      {"--output-dir", "DIR",
       "one <feed>.csv per feed (DIR must exist); the\n"
       "files are byte-identical across runs at one --seed",
       Text(&args->output_dir)},
      {"--evict-idle-ms", "N",
       "flush + evict sessions idle for N ms (default 0 = never,\n"
       "and so is N past the clock's range)",
       Integer(&args->evict_idle_ms, int64_t{0})},
      {"--max-in-flight", "N",
       "concurrent window jobs across feeds (default 0 = 2x pool)",
       Integer(&args->max_in_flight)},
      {"--listen", "EP",
       "accept framed edge connections on EP\n"
       "(unix:PATH or tcp:HOST:PORT) instead of reading\n"
       "a local file (default: off)",
       EndpointText(&args->listen)},
      {"--listen-conns", "N",
       "with --listen: finish after N edge connections\n"
       "have drained (default 0 = until SIGINT)",
       Integer(&args->listen_conns)},
      {"--connect", "",
       "frt_serve does not take --connect (use frt_edge to forward into a "
       "serving aggregator)",
       nullptr},
  });
  return table.Add(ServiceFlags(&args->common));
}

/// frt_edge's command line: local feeds, forwarded to an aggregator.
struct EdgeArgs {
  LocalFeeds local;
  std::string connect;                ///< --connect EP (the aggregator)
  std::string hello = "edge";         ///< --hello NAME
  uint64_t inject_corrupt_frame = 0;  ///< test hook; 0 = off
  ServiceArgs common;
};

inline FlagTable EdgeFlags(EdgeArgs* args) {
  const char* aggregator =
      "frt_edge does not take --listen or --listen-conns (use frt_serve as "
      "the aggregator)";
  FlagTable table{"(--feeds FILE|- | --input [NAME=]FILE ...) --connect EP",
                  LocalFeedFlags(&args->local)};
  table.Add({
      {"--hello", "NAME",
       "peer name sent in the connection preamble\n(default 'edge')",
       Text(&args->hello)},
      {"--inject-corrupt-frame", "N",
       "TEST HOOK: corrupt one payload byte of the Nth\n"
       "trajectory frame after its CRC (default 0 = off)",
       Integer(&args->inject_corrupt_frame)},
      {"--connect", "EP",
       "forward anonymized windows upstream to the\n"
       "aggregator at EP instead of writing locally",
       EndpointText(&args->connect)},
      {"--listen", "", aggregator, nullptr},
      {"--listen-conns", "", aggregator, nullptr},
  });
  return table.Add(ServiceFlags(&args->common));
}

/// \brief Local ingest: the interleaved multi-feed CSV of --feeds ("-" =
/// stdin) through OfferFeeds when set, else one reader per --input, each
/// offered as one feed through OfferFeed. The first input reads on the
/// calling thread, every other one on a thread of its own. Returns the
/// first error.
inline Status IngestLocalFeeds(const LocalFeeds& local,
                               ServiceDispatcher& service) {
  if (!local.feeds.empty()) {
    std::ifstream file;
    if (local.feeds != "-") {
      file.open(local.feeds);
      if (!file.is_open()) {
        return Status::IOError("cannot open feeds: " + local.feeds);
      }
    }
    MultiFeedReader reader(local.feeds == "-" ? std::cin : file);
    return OfferFeeds(reader, service);
  }
  const std::vector<InputFeed>& inputs = local.inputs;
  std::vector<Status> statuses(inputs.size());
  const auto read = [&](size_t i) {
    std::ifstream file;
    if (inputs[i].path != "-") {
      file.open(inputs[i].path);
      if (!file.is_open()) {
        statuses[i] = Status::IOError("cannot open input: " + inputs[i].path);
        return;
      }
    }
    TrajectoryReader reader(inputs[i].path == "-" ? std::cin : file);
    statuses[i] = OfferFeed(reader, inputs[i].feed, service);
  };
  std::vector<std::thread> readers;
  for (size_t i = 1; i < inputs.size(); ++i) {
    readers.emplace_back([&read, i] {
      obs::SetTraceThreadName("ingest");
      read(i);
    });
  }
  if (!inputs.empty()) read(0);
  for (auto& t : readers) t.join();
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// ---- Final report (ServiceDispatcher::report(), the final snapshot) ----

/// The report's feeds sorted by id, the order the CLIs print them in.
inline std::vector<const ServiceSnapshot::Feed*> FeedsById(
    const ServiceSnapshot& report) {
  std::vector<const ServiceSnapshot::Feed*> feeds;
  for (const ServiceSnapshot::Feed& feed : report.feeds_detail) {
    feeds.push_back(&feed);
  }
  std::sort(feeds.begin(), feeds.end(),
            [](const ServiceSnapshot::Feed* a, const ServiceSnapshot::Feed* b) {
              return a->feed < b->feed;
            });
  return feeds;
}

/// Prints the durability summary of a finished service (--state-dir).
inline void PrintDurability(const DurabilityArgs& args,
                            const ServiceSnapshot& report) {
  if (args.state_dir.empty()) return;
  std::fprintf(stderr,
               "durability: recovered %zu feed(s) from %s, wrote %zu "
               "checkpoint(s) (last seq %llu)\n",
               report.feeds_recovered, args.state_dir.c_str(),
               report.checkpoints_written,
               static_cast<unsigned long long>(report.checkpoint_seq));
}

/// \brief Prints the quarantine and budget lines of a finished multi-feed
/// service and returns its exit code: 3 when any feed was quarantined or
/// dropped anything on budget, else 0.
inline int ReportOutcome(const ServiceSnapshot& report) {
  int exit_code = 0;
  if (report.feeds_quarantined > 0) {
    for (const ServiceSnapshot::Feed* feed : FeedsById(report)) {
      if (feed->quarantined) {
        std::fprintf(stderr, "quarantine: feed %s: %s\n", feed->feed.c_str(),
                     feed->quarantine_reason.c_str());
      }
    }
    std::fprintf(stderr,
                 "%zu feed(s) quarantined: their streams were cut off at "
                 "the fault; every other feed published normally\n",
                 report.feeds_quarantined);
    exit_code = 3;
  }
  if (ServiceHadRefusals(report)) {
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

// ---- Observability: tracing, metrics exporter, admin plane ----

/// \brief Arms span tracing (--trace-out). Call before the service starts,
/// so the trace covers the whole run.
inline void StartTracing(const ObservabilityArgs& args) {
  if (args.trace_out.empty()) return;
  obs::TraceRecorder::Options trace_options;
  trace_options.buffer_events = static_cast<size_t>(args.trace_buffer_events);
  obs::TraceRecorder::Get().Start(trace_options);
  obs::SetTraceThreadName("main");
}

/// \brief Stops the exporter (flushing the final snapshot's lines) and
/// writes the trace. Call after ServiceDispatcher::Finish(), when every
/// thread that records spans has quiesced. A failed trace write lands in
/// `*status` unless it already holds an error.
inline void FinishObservability(const ObservabilityArgs& obs_args,
                                MetricsExporter* metrics, Status* status) {
  if (metrics != nullptr) metrics->Stop();
  if (obs_args.trace_out.empty()) return;
  const obs::TraceDump dump = obs::TraceRecorder::Get().Stop();
  if (Status st = obs::WriteChromeTrace(dump, obs_args.trace_out);
      !st.ok()) {
    if (status->ok()) *status = st;
    return;
  }
  std::fprintf(stderr,
               "trace: wrote %zu span(s) from %zu thread(s) to %s (%llu "
               "dropped)\n",
               dump.events.size(), dump.threads.size(),
               obs_args.trace_out.c_str(),
               static_cast<unsigned long long>(dump.dropped));
}

/// \brief Starts the pull plane of a started service: the --metrics
/// exporter and, on --admin-listen, the admin plane — the registry's
/// /metrics, plus /healthz, /readyz and /feedz read from the service's
/// snapshot board (never empty once Start() returned) and POST /control
/// (tracing, log level, metrics cadence). Neither touches dispatcher
/// state, but both reference `service`: destroy them before it.
inline Status StartObservability(const ServiceArgs& args,
                                 ServiceDispatcher& service,
                                 std::unique_ptr<MetricsExporter>* metrics,
                                 std::unique_ptr<obs::AdminServer>* admin) {
  if (!args.durability.metrics.empty()) {
    *metrics = std::make_unique<MetricsExporter>(
        MakeMetricsOptions(args.durability), service.snapshots());
    FRT_RETURN_IF_ERROR((*metrics)->Start());
  }
  if (args.obs.admin_listen.empty()) return Status::OK();
  obs::AdminServer::Options admin_options;
  FRT_ASSIGN_OR_RETURN(admin_options.endpoint,
                       net::ParseEndpoint(args.obs.admin_listen));
  *admin = std::make_unique<obs::AdminServer>(admin_options);
  // /healthz and /readyz judge the board by StaleAfter, the rule the
  // exporter re-emits by: a wedged dispatcher stops republishing it.
  (*admin)->Handle("GET", "/healthz", [&service](const obs::HttpRequest&) {
    obs::HttpResponse r;
    const auto intro = service.Introspect();
    const auto now = std::chrono::steady_clock::now();
    if (now > StaleAfter(*intro)) {
      r.status = 503;
      r.body = StrFormat(
          "stale: snapshot board is %.0f ms old (seq %llu)\n",
          MillisBetween(intro->published_at, now),
          static_cast<unsigned long long>(intro->seq));
    } else {
      r.body = "ok\n";
    }
    return r;
  });
  (*admin)->Handle("GET", "/readyz", [&service](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.status = 503;
    const auto intro = service.Introspect();
    if (intro->aborted || intro->finished) {
      r.body = intro->aborted ? "aborted\n" : "finished\n";
    } else if (std::chrono::steady_clock::now() > StaleAfter(*intro)) {
      r.body = "stale\n";
    } else {
      r.status = 200;
      r.body = "ready\n";
    }
    return r;
  });
  (*admin)->Handle("GET", "/feedz", [&service](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "application/json",
                             RenderFeedz(*service.Introspect())};
  });
  obs::ControlHooks hooks;
  hooks.trace_out = args.obs.trace_out;
  hooks.trace_buffer_events = static_cast<size_t>(args.obs.trace_buffer_events);
  // The dispatcher's tick is the one metrics clock: the exporter and the
  // staleness threshold follow the snapshot it publishes on a retune.
  hooks.set_metrics_interval_ms = [&service](int64_t ms) {
    service.SetMetricsIntervalMs(ms);
    return true;
  };
  (*admin)->Handle("POST", "/control",
                   obs::MakeControlHandler(std::move(hooks)));
  FRT_RETURN_IF_ERROR((*admin)->Start());
  std::fprintf(stderr, "admin plane on %s\n", args.obs.admin_listen.c_str());
  return Status::OK();
}

}  // namespace frt::cli

#endif  // FRT_TOOLS_SERVICE_CLI_H_
