// Helpers shared by the FRT command-line tools: the pipeline flags common
// to every anonymizing CLI are parsed, validated, and documented here once,
// so the tools cannot drift apart as flags are added.

#ifndef FRT_TOOLS_CLI_COMMON_H_
#define FRT_TOOLS_CLI_COMMON_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/strings.h"
#include "core/pipeline.h"
#include "service/metrics_exporter.h"
#include "stream/stream_types.h"

namespace frt::cli {

// ---- Strict numeric flag values ----
//
// atof/atoi map a malformed value ("oops", "1.5x", "") to 0 silently — a
// zero budget then refuses every window with no diagnostic pointing at the
// typo. Every numeric flag instead parses strictly: the whole value must
// be a number, trailing garbage and empty strings are usage errors that
// name the offending flag, and the tool exits non-zero.

/// \brief Parses `value` as a double for `flag`. Reports and returns false
/// on anything but a complete, finite-syntax number.
inline bool ParseFlagDouble(const char* flag, const char* value,
                            double* out) {
  Result<double> parsed = ParseDouble(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "invalid numeric value '%s' for %s\n", value, flag);
    return false;
  }
  *out = *parsed;
  return true;
}

/// \brief Parses `value` as a signed integer for `flag` (strict; see
/// above).
inline bool ParseFlagInt64(const char* flag, const char* value,
                           int64_t* out) {
  const char* end = value + std::strlen(value);
  int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || value == end) {
    std::fprintf(stderr, "invalid integer value '%s' for %s\n", value, flag);
    return false;
  }
  *out = parsed;
  return true;
}

/// \brief Parses `value` as an unsigned integer for `flag` (strict; a
/// leading '-' is rejected, not wrapped).
inline bool ParseFlagUint64(const char* flag, const char* value,
                            uint64_t* out) {
  const char* end = value + std::strlen(value);
  uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || value == end) {
    std::fprintf(stderr, "invalid integer value '%s' for %s\n", value, flag);
    return false;
  }
  *out = parsed;
  return true;
}

/// \brief ParseFlagUint64 for a thread count: a value beyond unsigned
/// range is reported instead of wrapping modulo 2^32.
inline bool ParseFlagUnsigned(const char* flag, const char* value,
                              unsigned* out) {
  uint64_t parsed = 0;
  if (!ParseFlagUint64(flag, value, &parsed)) return false;
  if (parsed > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "%s value out of range\n", flag);
    return false;
  }
  *out = static_cast<unsigned>(parsed);
  return true;
}

/// \brief The value of the flag at argv[*i], advancing *i past it; nullptr
/// (reported) when the value is missing.
inline const char* NextFlagValue(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[*i]);
    return nullptr;
  }
  return argv[++*i];
}

/// Raw values of the flags shared by all anonymizing tools. The kNN
/// search is always the paper's HG+ (every strategy publishes the same
/// release, src/index/README.md), so it is not a flag.
struct PipelineArgs {
  double epsilon_global = 0.5;
  double epsilon_local = 0.5;
  int m = 10;
  std::string order = "global";
  uint64_t seed = 42;
  int shards = 1;
  /// Worker threads of the pool the run executes on; 0 = the tool's
  /// default size.
  unsigned threads = 0;
};

/// Outcome of offering one argv slot to the shared parser.
enum class FlagParse {
  kConsumed,  ///< it was a shared flag; *i advanced past its value
  kNotMine,   ///< not a shared flag; the tool should try its own flags
  kError,     ///< a shared flag with a missing/invalid value (reported)
};

/// \brief Tries to consume argv[*i] as one of the shared pipeline flags.
inline FlagParse ParsePipelineFlag(int argc, char** argv, int* i,
                                   PipelineArgs* args) {
  const char* flag = argv[*i];
  auto next = [&] { return NextFlagValue(argc, argv, i); };
  const char* v = nullptr;
  if (std::strcmp(flag, "--epsilon-global") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagDouble(flag, v, &args->epsilon_global)) {
      return FlagParse::kError;
    }
  } else if (std::strcmp(flag, "--epsilon-local") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagDouble(flag, v, &args->epsilon_local)) {
      return FlagParse::kError;
    }
  } else if (std::strcmp(flag, "--m") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t m = 0;
    if (!ParseFlagInt64(flag, v, &m)) return FlagParse::kError;
    if (m < 1 || m > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "--m must be a positive int\n");
      return FlagParse::kError;
    }
    args->m = static_cast<int>(m);
  } else if (std::strcmp(flag, "--order") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->order = v;
  } else if (std::strcmp(flag, "--seed") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagUint64(flag, v, &args->seed)) return FlagParse::kError;
  } else if (std::strcmp(flag, "--shards") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t shards = 0;
    if (!ParseFlagInt64(flag, v, &shards)) return FlagParse::kError;
    if (shards < 1 || shards > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "--shards must be >= 1\n");
      return FlagParse::kError;
    }
    args->shards = static_cast<int>(shards);
  } else if (std::strcmp(flag, "--threads") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagUnsigned(flag, v, &args->threads)) return FlagParse::kError;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// \brief Validates the shared flags and fills a pipeline config.
/// Reports to stderr and returns false on invalid combinations.
inline bool MakePipelineConfig(const PipelineArgs& args,
                               FrequencyRandomizerConfig* config) {
  config->m = args.m;
  config->epsilon_global = args.epsilon_global;
  config->epsilon_local = args.epsilon_local;
  if (args.order != "global" && args.order != "local") {
    std::fprintf(stderr, "unknown order '%s' (want global or local)\n",
                 args.order.c_str());
    return false;
  }
  config->order = args.order == "local" ? MechanismOrder::kLocalFirst
                                        : MechanismOrder::kGlobalFirst;
  if (config->epsilon_global <= 0.0 && config->epsilon_local <= 0.0) {
    std::fprintf(stderr, "at least one epsilon must be positive\n");
    return false;
  }
  return true;
}

/// Usage text of the shared flags (embed in each tool's Usage()).
inline const char* PipelineUsageText() {
  return
      "  --epsilon-global X   budget of the global TF mechanism (default "
      "0.5; 0 disables)\n"
      "  --epsilon-local X    budget of the local PF mechanism (default "
      "0.5; 0 disables)\n"
      "  --m N                signature size (default 10)\n"
      "  --order O            mechanism order: global | local first "
      "(default global)\n"
      "  --seed N             RNG seed (default 42)\n"
      "  --shards K           dataset partitions anonymized independently "
      "(default 1)\n"
      "  --threads N          worker pool size (default 0 = hardware "
      "concurrency;\n"
      "                       at least 2 in the services, and "
      "frt_anonymize\n"
      "                       uses a pool only with --shards > 1)\n";
}

// ---- Streaming flags (every service CLI: windowing/budget vocabulary) ----

/// Raw values of the streaming-service flags.
struct StreamArgs {
  size_t window = 1000;
  size_t stride = 0;  ///< 0 = tumbling (stride == window)
  double budget = 0.0;             ///< wholesale ledger; 0 = track only
  double per_object_budget = 0.0;  ///< per-object ledgers; 0 = off
  bool evict_exhausted = false;
  size_t queue = 0;  ///< arrival queue capacity; 0 = the tool's default
  bool stop_on_exhausted = false;
  int64_t close_after_ms = 0;  ///< time-based window closure; 0 = off
};

/// \brief Tries to consume argv[*i] as one of the streaming flags.
inline FlagParse ParseStreamFlag(int argc, char** argv, int* i,
                                 StreamArgs* args) {
  const char* flag = argv[*i];
  auto next = [&] { return NextFlagValue(argc, argv, i); };
  const char* v = nullptr;
  if (std::strcmp(flag, "--window") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t n = 0;
    if (!ParseFlagInt64(flag, v, &n)) return FlagParse::kError;
    if (n < 1) {
      std::fprintf(stderr, "--window must be >= 1\n");
      return FlagParse::kError;
    }
    args->window = static_cast<size_t>(n);
  } else if (std::strcmp(flag, "--stride") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t n = 0;
    if (!ParseFlagInt64(flag, v, &n)) return FlagParse::kError;
    if (n < 1) {
      std::fprintf(stderr, "--stride must be >= 1\n");
      return FlagParse::kError;
    }
    args->stride = static_cast<size_t>(n);
  } else if (std::strcmp(flag, "--budget") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagDouble(flag, v, &args->budget)) return FlagParse::kError;
  } else if (std::strcmp(flag, "--per-object-budget") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    if (!ParseFlagDouble(flag, v, &args->per_object_budget)) {
      return FlagParse::kError;
    }
  } else if (std::strcmp(flag, "--evict-exhausted") == 0) {
    args->evict_exhausted = true;
  } else if (std::strcmp(flag, "--queue") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    uint64_t n = 0;
    if (!ParseFlagUint64(flag, v, &n)) return FlagParse::kError;
    args->queue = static_cast<size_t>(n);
  } else if (std::strcmp(flag, "--stop-on-exhausted") == 0) {
    args->stop_on_exhausted = true;
  } else if (std::strcmp(flag, "--close-after-ms") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t n = 0;
    if (!ParseFlagInt64(flag, v, &n)) return FlagParse::kError;
    if (n < 0) {
      std::fprintf(stderr, "--close-after-ms must be >= 0\n");
      return FlagParse::kError;
    }
    args->close_after_ms = n;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// \brief Validates the streaming flags (with an already-validated pipeline
/// config) and fills the per-feed stream config. Reports to stderr and
/// returns false on invalid combinations.
inline bool MakeStreamConfig(const StreamArgs& args,
                             const PipelineArgs& pipeline_args,
                             const FrequencyRandomizerConfig& pipeline,
                             StreamConfig* config) {
  if (args.stride > args.window) {
    std::fprintf(stderr, "--stride (%zu) must be <= --window (%zu)\n",
                 args.stride, args.window);
    return false;
  }
  if (args.budget > 0.0 && args.per_object_budget > 0.0) {
    std::fprintf(stderr,
                 "--budget and --per-object-budget select different "
                 "accountants; pass at most one\n");
    return false;
  }
  if (args.evict_exhausted && args.per_object_budget <= 0.0) {
    std::fprintf(stderr,
                 "--evict-exhausted requires --per-object-budget (only the "
                 "per-object ledger can refuse a single object)\n");
    return false;
  }
  config->window_size = args.window;
  config->window_stride = args.stride;
  config->total_budget = args.budget;
  config->per_object_budget = args.per_object_budget;
  config->accounting = args.per_object_budget > 0.0
                           ? BudgetAccounting::kPerObject
                           : BudgetAccounting::kWholesale;
  config->evict_exhausted = args.evict_exhausted;
  config->stop_when_exhausted = args.stop_on_exhausted;
  config->close_after_ms = args.close_after_ms;
  config->batch.pipeline = pipeline;
  config->batch.shards = pipeline_args.shards;
  config->batch.audit.enabled = true;
  config->batch.audit.strategy = pipeline.strategy;
  config->batch.audit.index_levels = pipeline.index_levels;
  return true;
}

/// One-line per-run summary of a window audit, for the tools' stderr
/// reports ("displacement" = published point to nearest original segment).
/// "shared-index=on builds=1" are fixed tokens, kept so log parsers see a
/// stable format (the audit builds one index per part, one part per
/// shard); build= is the sum of the part builds.
inline void PrintAuditReport(const WindowAuditReport& audit) {
  if (!audit.ran) return;
  std::fprintf(stderr,
               "audit: shared-index=on builds=1 build=%.3fs points=%llu "
               "displacement mean/max %.3f/%.3f\n",
               audit.build_seconds,
               static_cast<unsigned long long>(audit.points_audited),
               audit.mean_displacement, audit.max_displacement);
}

/// Usage text of the streaming flags (embed in each tool's Usage()).
inline const char* StreamUsageText() {
  return
      "  --window N           trajectories per window (default 1000)\n"
      "  --stride N           arrivals between window starts; N < window "
      "gives\n"
      "                       sliding (overlapping) windows (default: "
      "window,\n"
      "                       i.e. tumbling)\n"
      "  --budget X           wholesale epsilon budget: every window's "
      "spend\n"
      "                       sums against it (default 0 = track only)\n"
      "  --per-object-budget X\n"
      "                       per-object epsilon budget: each object-id's "
      "own\n"
      "                       cumulative spend is capped (the paper's "
      "per-object\n"
      "                       guarantee; excludes --budget)\n"
      "  --evict-exhausted    with --per-object-budget: evict exhausted "
      "objects\n"
      "                       from a window instead of refusing the whole "
      "window\n"
      "  --queue N            arrival queue capacity in trajectories "
      "(default:\n"
      "                       2*window in frt_stream, 4*window in the "
      "services)\n"
      "  --stop-on-exhausted  end the run at the first refused window "
      "(required\n"
      "                       for --budget on a feed that never ends)\n"
      "  --close-after-ms N   wall-clock closure SLO: publish a non-empty "
      "window\n"
      "                       no later than N ms after its oldest pending\n"
      "                       arrival, even if short of --window (default "
      "0 = off)\n";
}

// ---- Durability & metrics flags (frt_serve, frt_stream) ----

/// Raw values of the shared durability/metrics flags.
struct DurabilityArgs {
  /// Budget-ledger checkpoint directory; empty = checkpointing off.
  std::string state_dir;
  int64_t checkpoint_interval_ms = 1000;
  /// Metrics output: a file path or "-" for stderr; empty = metrics off.
  std::string metrics;
  int64_t metrics_interval_ms = 1000;
  bool metrics_per_feed = false;
};

/// \brief Tries to consume argv[*i] as one of the durability/metrics
/// flags.
inline FlagParse ParseDurabilityFlag(int argc, char** argv, int* i,
                                     DurabilityArgs* args) {
  const char* flag = argv[*i];
  auto next = [&] { return NextFlagValue(argc, argv, i); };
  const char* v = nullptr;
  if (std::strcmp(flag, "--state-dir") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->state_dir = v;
  } else if (std::strcmp(flag, "--checkpoint-interval-ms") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t n = 0;
    if (!ParseFlagInt64(flag, v, &n)) return FlagParse::kError;
    if (n < 1) {
      std::fprintf(stderr, "--checkpoint-interval-ms must be >= 1\n");
      return FlagParse::kError;
    }
    args->checkpoint_interval_ms = n;
  } else if (std::strcmp(flag, "--metrics") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->metrics = v;
  } else if (std::strcmp(flag, "--metrics-interval-ms") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    int64_t n = 0;
    if (!ParseFlagInt64(flag, v, &n)) return FlagParse::kError;
    if (n < 1) {
      std::fprintf(stderr, "--metrics-interval-ms must be >= 1\n");
      return FlagParse::kError;
    }
    args->metrics_interval_ms = n;
  } else if (std::strcmp(flag, "--metrics-per-feed") == 0) {
    args->metrics_per_feed = true;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// Usage text of the durability/metrics flags.
inline const char* DurabilityUsageText() {
  return
      "  --state-dir DIR      durable budget ledgers: checkpoint per-feed "
      "spend\n"
      "                       into DIR (write-ahead of every publish) and "
      "recover\n"
      "                       it on startup, so a restart never re-grants "
      "spent\n"
      "                       epsilon (default: off)\n"
      "  --checkpoint-interval-ms N\n"
      "                       cadence for interval snapshots of ledger "
      "changes\n"
      "                       with no publish to ride on (default 1000)\n"
      "  --metrics PATH       append one frt_metrics line and one frt_stage "
      "latency\n"
      "                       line per stage per interval to PATH, or - for "
      "stderr\n"
      "                       (default: off)\n"
      "  --metrics-interval-ms N\n"
      "                       metrics emission interval (default 1000)\n"
      "  --metrics-per-feed   also emit one frt_feed line per feed per "
      "interval\n";
}

// ---- Observability flags (frt_serve, frt_stream) ----

/// Raw values of the shared observability flags.
struct ObservabilityArgs {
  /// Span trace output: a Chrome trace-event JSON path, or "-" for stdout;
  /// empty = tracing off.
  std::string trace_out;
  /// Per-thread trace ring capacity in events; on overflow the oldest
  /// events are overwritten and counted as dropped.
  uint64_t trace_buffer_events = uint64_t{1} << 16;
  /// Admin/introspection endpoint ("unix:PATH" or "tcp:HOST:PORT");
  /// empty = no admin plane.
  std::string admin_listen;
};

/// \brief Tries to consume argv[*i] as one of the observability flags.
inline FlagParse ParseObservabilityFlag(int argc, char** argv, int* i,
                                        ObservabilityArgs* args) {
  const char* flag = argv[*i];
  auto next = [&] { return NextFlagValue(argc, argv, i); };
  const char* v = nullptr;
  if (std::strcmp(flag, "--trace-out") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->trace_out = v;
  } else if (std::strcmp(flag, "--trace-buffer-events") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    uint64_t n = 0;
    if (!ParseFlagUint64(flag, v, &n)) return FlagParse::kError;
    if (n < 1) {
      std::fprintf(stderr, "--trace-buffer-events must be >= 1\n");
      return FlagParse::kError;
    }
    args->trace_buffer_events = n;
  } else if (std::strcmp(flag, "--admin-listen") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->admin_listen = v;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// Exporter options from the parsed flags (only meaningful when
/// args.metrics is non-empty).
inline MetricsExporter::Options MakeMetricsOptions(
    const DurabilityArgs& args) {
  MetricsExporter::Options options;
  options.path = args.metrics;
  options.interval_ms = args.metrics_interval_ms;
  options.per_feed = args.metrics_per_feed;
  return options;
}

/// Usage text of the observability flags.
inline const char* ObservabilityUsageText() {
  return
      "  --trace-out PATH     record spans for the whole run and write one "
      "Chrome\n"
      "                       trace-event JSON file on exit (load in\n"
      "                       chrome://tracing or Perfetto); - for stdout\n"
      "                       (default: off)\n"
      "  --trace-buffer-events N\n"
      "                       per-thread trace ring capacity; overflow "
      "overwrites\n"
      "                       the oldest events and reports them as dropped\n"
      "                       (default 65536)\n"
      "  --admin-listen EP    serve the introspection plane on EP "
      "(unix:PATH or\n"
      "                       tcp:HOST:PORT): GET /metrics /healthz /readyz "
      "/feedz,\n"
      "                       POST /control (default: off)\n";
}

// ---- Transport flags (frt_serve --listen, frt_edge --connect) ----

/// Raw values of the network-transport flags shared by the ingress tier.
struct TransportArgs {
  /// Listen endpoint ("unix:PATH" or "tcp:HOST:PORT"); empty = no network
  /// ingress.
  std::string listen;
  /// Upstream endpoint an edge forwards to; empty = local output only.
  std::string connect;
  /// With --listen: stop after this many edge connections have drained
  /// (0 = serve until interrupted). Unset when the flag was not given, so
  /// a CLI without --listen can reject it.
  std::optional<uint64_t> listen_conns;
};

/// \brief Tries to consume argv[*i] as one of the transport flags.
inline FlagParse ParseTransportFlag(int argc, char** argv, int* i,
                                    TransportArgs* args) {
  const char* flag = argv[*i];
  auto next = [&] { return NextFlagValue(argc, argv, i); };
  const char* v = nullptr;
  if (std::strcmp(flag, "--listen") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->listen = v;
  } else if (std::strcmp(flag, "--connect") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    args->connect = v;
  } else if (std::strcmp(flag, "--listen-conns") == 0) {
    if ((v = next()) == nullptr) return FlagParse::kError;
    uint64_t conns = 0;
    if (!ParseFlagUint64(flag, v, &conns)) return FlagParse::kError;
    args->listen_conns = conns;
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// Usage text of the aggregator end of the transport (frt_serve only).
inline const char* ListenUsageText() {
  return
      "  --listen EP          accept framed edge connections on EP\n"
      "                       (unix:PATH or tcp:HOST:PORT) instead of "
      "reading\n"
      "                       a local file (default: off)\n"
      "  --listen-conns N     with --listen: finish after N edge "
      "connections\n"
      "                       have drained (default 0 = until SIGINT)\n";
}

/// Usage text of the edge end of the transport (frt_edge only).
inline const char* ConnectUsageText() {
  return
      "  --connect EP         forward anonymized windows upstream to the\n"
      "                       aggregator at EP instead of writing locally\n";
}

}  // namespace frt::cli

#endif  // FRT_TOOLS_CLI_COMMON_H_
