// Helpers shared by the FRT command-line tools. Every flag is declared
// once, as one entry of a flag table: its name, metavariable, help text,
// and a typed setter that parses and range-checks the value. One parser
// (ParseFlags) and one usage printer (PrintUsage) read the same entries,
// so a tool accepts exactly the flags its usage text advertises. Each tool
// composes its table from the families below plus its own flags.

#ifndef FRT_TOOLS_CLI_COMMON_H_
#define FRT_TOOLS_CLI_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/strings.h"
#include "core/pipeline.h"
#include "net/socket.h"
#include "service/metrics_exporter.h"
#include "stream/stream_types.h"

namespace frt::cli {

// ---- The flag table ----

/// Stores one flag's value (nullptr for a switch). Reports to stderr and
/// returns false on a value it refuses; the tool then exits 2.
using FlagSetter = std::function<bool(const char* flag, const char* value)>;

/// One command-line flag.
struct Flag {
  const char* name;  ///< "--window"
  const char* meta;  ///< value placeholder in usage; "" = a switch
  const char* help;  ///< usage text; '\n' starts a continuation line
  /// Empty for a flag a sibling tool takes but this one refuses: the
  /// parser reports it unknown with `help` as the reason, and usage never
  /// shows it.
  FlagSetter set;
};

/// A tool's command line: the synopsis printed after "usage: PROG" and
/// the flags it takes.
struct FlagTable {
  const char* synopsis;
  std::vector<Flag> flags;

  FlagTable& Add(std::vector<Flag> family) {
    flags.insert(flags.end(), family.begin(), family.end());
    return *this;
  }
};

/// \brief Parses argv[1..argc) against `table`: every argument must be one
/// of its flags, followed by a value unless the flag is a switch. Reports
/// the first bad argument to stderr and returns false (a usage error).
inline bool ParseFlags(int argc, char** argv, const FlagTable& table) {
  for (int i = 1; i < argc; ++i) {
    const char* name = argv[i];
    const auto flag =
        std::find_if(table.flags.begin(), table.flags.end(),
                     [name](const Flag& f) {
                       return std::strcmp(f.name, name) == 0;
                     });
    if (flag == table.flags.end() || !flag->set) {
      std::fprintf(stderr, "unknown flag: %s\n", name);
      if (flag != table.flags.end()) std::fprintf(stderr, "%s\n", flag->help);
      return false;
    }
    const char* value = nullptr;
    if (*flag->meta != '\0') {
      if (++i == argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return false;
      }
      value = argv[i];
    }
    if (!flag->set(name, value)) return false;
  }
  return true;
}

/// Prints the usage text of `table` to stderr: the synopsis, then one
/// entry per flag with its help aligned at column 23.
inline void PrintUsage(const char* prog, const FlagTable& table) {
  std::fprintf(stderr, "usage: %s %s\n", prog, table.synopsis);
  for (const Flag& flag : table.flags) {
    if (!flag.set) continue;
    std::string head = flag.name;
    if (*flag.meta != '\0') head = head + " " + flag.meta;
    std::string help;
    for (const char* c = flag.help; *c != '\0'; ++c) {
      help += *c;
      if (*c == '\n') help.append(23, ' ');
    }
    if (head.size() < 20) {
      std::fprintf(stderr, "  %-20s %s\n", head.c_str(), help.c_str());
    } else {
      std::fprintf(stderr, "  %s\n%23s%s\n", head.c_str(), "", help.c_str());
    }
  }
}

/// Reports `message` and returns false unless `ok`: the presence checks
/// that follow ParseFlags.
inline bool Require(bool ok, const char* message) {
  if (!ok) std::fprintf(stderr, "%s\n", message);
  return ok;
}

// ---- Setters ----
//
// atof/atoi map a malformed value ("oops", "1.5x", "") to 0 silently — a
// zero budget then refuses every window with no diagnostic pointing at the
// typo. Every numeric flag instead parses strictly: the whole value must
// be a number, trailing garbage and empty strings are usage errors that
// name the offending flag, and the tool exits 2.

inline FlagSetter Text(std::string* out) {
  return [out](const char*, const char* value) {
    *out = value;
    return true;
  };
}

inline FlagSetter Switch(bool* out) {
  return [out](const char*, const char*) {
    *out = true;
    return true;
  };
}

/// An integer in [min, max]. Unsigned flags reject a leading '-' instead
/// of wrapping it, and a value beyond T's range is reported, never
/// truncated.
template <typename T>
FlagSetter Integer(T* out, T min = std::numeric_limits<T>::min(),
                   T max = std::numeric_limits<T>::max()) {
  return [out, min, max](const char* flag, const char* value) {
    using Wide = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;
    const char* end = value + std::strlen(value);
    Wide parsed = 0;
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ec != std::errc() || ptr != end || value == end) {
      std::fprintf(stderr, "invalid integer value '%s' for %s\n", value,
                   flag);
      return false;
    }
    if (parsed < static_cast<Wide>(min) || parsed > static_cast<Wide>(max)) {
      const std::string want =
          max == std::numeric_limits<Wide>::max()
              ? ">= " + std::to_string(min)
              : std::to_string(min) + ".." + std::to_string(max);
      std::fprintf(stderr, "%s value out of range (want %s)\n", flag,
                   want.c_str());
      return false;
    }
    *out = static_cast<T>(parsed);
    return true;
  };
}

/// A privacy parameter (an epsilon or an epsilon budget): a finite number
/// >= 0, where 0 means the flag's "disabled / track only". inf would mean
/// no noise at all and nan compares false against every budget, so both
/// are usage errors, as is a negative value.
inline FlagSetter Epsilon(double* out) {
  return [out](const char* flag, const char* value) {
    const Result<double> parsed = ParseDouble(value);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid numeric value '%s' for %s\n", value,
                   flag);
      return false;
    }
    if (!std::isfinite(*parsed) || *parsed < 0.0) {
      std::fprintf(stderr, "%s must be a finite number >= 0, not '%s'\n",
                   flag, value);
      return false;
    }
    *out = *parsed;
    return true;
  };
}

/// A network endpoint ("unix:PATH" or "tcp:HOST:PORT"), validated here so
/// a malformed one is a usage error rather than a mid-run failure; the
/// spelling is stored for the tools' reports.
inline FlagSetter EndpointText(std::string* out) {
  return [out](const char* flag, const char* value) {
    if (auto endpoint = net::ParseEndpoint(value); !endpoint.ok()) {
      std::fprintf(stderr, "%s: %s\n", flag,
                   endpoint.status().ToString().c_str());
      return false;
    }
    *out = value;
    return true;
  };
}

// ---- Pipeline flags (every anonymizing CLI) ----

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

inline std::vector<Flag> PipelineFlags(PipelineArgs* args) {
  return {
      {"--epsilon-global", "X",
       "budget of the global TF mechanism (default 0.5; 0 disables)",
       Epsilon(&args->epsilon_global)},
      {"--epsilon-local", "X",
       "budget of the local PF mechanism (default 0.5; 0 disables)",
       Epsilon(&args->epsilon_local)},
      {"--m", "N", "signature size (default 10)", Integer(&args->m, 1)},
      {"--order", "O", "mechanism order: global | local first (default global)",
       Text(&args->order)},
      {"--seed", "N", "RNG seed (default 42)", Integer(&args->seed)},
      {"--shards", "K",
       "dataset partitions anonymized independently (default 1)",
       Integer(&args->shards, 1)},
      {"--threads", "N",
       "worker pool size (default 0 = hardware concurrency;\n"
       "at least 2 in the services, and frt_anonymize\n"
       "uses a pool only with --shards > 1)",
       Integer(&args->threads)},
  };
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

/// frt_anonymize's command line.
struct AnonymizeArgs {
  std::string input;
  std::string output;
  PipelineArgs pipeline;
};

inline FlagTable AnonymizeFlags(AnonymizeArgs* args) {
  FlagTable table{"--input FILE|- --output FILE [options]",
                  {{"--input", "FILE|-",
                    "dataset CSV to anonymize; - reads it from stdin",
                    Text(&args->input)},
                   {"--output", "FILE", "published dataset CSV",
                    Text(&args->output)}}};
  return table.Add(PipelineFlags(&args->pipeline));
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

inline std::vector<Flag> StreamFlags(StreamArgs* args) {
  return {
      {"--window", "N", "trajectories per window (default 1000)",
       Integer(&args->window, size_t{1})},
      {"--stride", "N",
       "arrivals between window starts; N < window gives\n"
       "sliding (overlapping) windows (default: window,\n"
       "i.e. tumbling)",
       Integer(&args->stride, size_t{1})},
      {"--budget", "X",
       "wholesale epsilon budget: every window's spend\n"
       "sums against it (default 0 = track only)",
       Epsilon(&args->budget)},
      {"--per-object-budget", "X",
       "per-object epsilon budget: each object-id's own\n"
       "cumulative spend is capped (the paper's per-object\n"
       "guarantee; excludes --budget)",
       Epsilon(&args->per_object_budget)},
      {"--evict-exhausted", "",
       "with --per-object-budget: evict exhausted objects\n"
       "from a window instead of refusing the whole window",
       Switch(&args->evict_exhausted)},
      {"--queue", "N",
       "arrival queue capacity in trajectories (default:\n"
       "2*window in frt_stream, 4*window in the services)",
       Integer(&args->queue)},
      {"--stop-on-exhausted", "",
       "end the run at the first refused window (required\n"
       "for --budget on a feed that never ends)",
       Switch(&args->stop_on_exhausted)},
      {"--close-after-ms", "N",
       "wall-clock closure SLO: publish a non-empty window\n"
       "no later than N ms after its oldest pending\n"
       "arrival, even if short of --window (default 0 = off)",
       Integer(&args->close_after_ms, int64_t{0})},
  };
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
  config->evict_exhausted = args.evict_exhausted;
  config->stop_when_exhausted = args.stop_on_exhausted;
  config->close_after_ms = args.close_after_ms;
  config->batch.pipeline = pipeline;
  config->batch.shards = pipeline_args.shards;
  config->batch.audit.enabled = true;
  return true;
}

/// One-line per-run summary of a window audit, for the tools' stderr
/// reports ("displacement" = published point to nearest original segment).
/// "shared-index=on builds=1" are fixed tokens, kept so log parsers see a
/// stable format (the audit builds one segment tree per part, one part
/// per shard); build= is the sum of the part builds.
inline void PrintAuditReport(const WindowAuditReport& audit) {
  if (!audit.ran) return;
  std::fprintf(stderr,
               "audit: shared-index=on builds=1 build=%.3fs points=%llu "
               "displacement mean/max %.3f/%.3f\n",
               audit.build_seconds,
               static_cast<unsigned long long>(audit.points_audited),
               audit.mean_displacement, audit.max_displacement);
}

// ---- Durability & metrics flags (every service CLI) ----

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

inline std::vector<Flag> DurabilityFlags(DurabilityArgs* args) {
  return {
      {"--state-dir", "DIR",
       "durable budget ledgers: checkpoint per-feed spend\n"
       "into DIR (write-ahead of every publish) and recover\n"
       "it on startup, so a restart never re-grants spent\n"
       "epsilon (default: off)",
       Text(&args->state_dir)},
      {"--checkpoint-interval-ms", "N",
       "cadence for interval snapshots of ledger changes\n"
       "with no publish to ride on (default 1000)",
       Integer(&args->checkpoint_interval_ms, int64_t{1})},
      {"--metrics", "PATH",
       "append one frt_metrics line and one frt_stage latency\n"
       "line per stage per interval to PATH, or - for stderr\n"
       "(default: off)",
       Text(&args->metrics)},
      {"--metrics-interval-ms", "N",
       "metrics emission interval (default 1000)",
       Integer(&args->metrics_interval_ms, int64_t{1})},
      {"--metrics-per-feed", "",
       "also emit one frt_feed line per feed per interval",
       Switch(&args->metrics_per_feed)},
  };
}

/// Exporter options from the parsed flags (only meaningful when
/// args.metrics is non-empty).
inline MetricsExporter::Options MakeMetricsOptions(
    const DurabilityArgs& args) {
  MetricsExporter::Options options;
  options.path = args.metrics;
  options.per_feed = args.metrics_per_feed;
  return options;
}

// ---- Observability flags (every service CLI) ----

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

inline std::vector<Flag> ObservabilityFlags(ObservabilityArgs* args) {
  return {
      {"--trace-out", "PATH",
       "record spans for the whole run and write one Chrome\n"
       "trace-event JSON file on exit (load in\n"
       "chrome://tracing or Perfetto); - for stdout\n"
       "(default: off)",
       Text(&args->trace_out)},
      {"--trace-buffer-events", "N",
       "per-thread trace ring capacity; overflow overwrites\n"
       "the oldest events and reports them as dropped\n"
       "(default 65536)",
       Integer(&args->trace_buffer_events, uint64_t{1})},
      {"--admin-listen", "EP",
       "serve the introspection plane on EP (unix:PATH or\n"
       "tcp:HOST:PORT): GET /metrics /healthz /readyz /feedz,\n"
       "POST /control (default: off)",
       EndpointText(&args->admin_listen)},
  };
}

}  // namespace frt::cli

#endif  // FRT_TOOLS_CLI_COMMON_H_
