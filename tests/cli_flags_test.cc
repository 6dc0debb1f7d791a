// Locks the CLI flag tables in tools/cli_common.h and tools/service_cli.h:
// a malformed value ("oops", "1.5x", "") must be a reported usage error
// naming the offending flag — never the silent zero atof/atoi would
// produce (a zero budget that refuses every window with no diagnostic) —
// privacy parameters must be finite and non-negative, and each tool's
// table must declare every flag once. Also pins the service wiring:
// --threads sizes the pool, and retired flags are not parsed.

#include "cli_common.h"
#include "service_cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace frt::cli {
namespace {

/// Runs ParseFlags over `args` (program name excluded) against `table`.
bool Parse(const FlagTable& table, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), table);
}

/// A table holding one flag family.
FlagTable Family(std::vector<Flag> flags) {
  return FlagTable{"", std::move(flags)};
}

TEST(CliFlagsTest, StrictDoubleRejectsGarbageAndTrailingJunk) {
  double out = 99.0;
  const FlagSetter set = Epsilon(&out);
  EXPECT_FALSE(set("--budget", "oops"));
  EXPECT_FALSE(set("--budget", "1.5x"));
  EXPECT_FALSE(set("--budget", ""));
  EXPECT_FALSE(set("--budget", "1.5 2"));
  EXPECT_EQ(out, 99.0);  // never clobbered on failure
  EXPECT_TRUE(set("--budget", "1.5"));
  EXPECT_EQ(out, 1.5);
  EXPECT_TRUE(set("--budget", "0"));  // 0 = disabled / track only
  EXPECT_EQ(out, 0.0);
}

TEST(CliFlagsTest, StrictIntRejectsGarbageAndTrailingJunk) {
  int64_t out = 99;
  const FlagSetter set = Integer(&out);
  EXPECT_FALSE(set("--window", "oops"));
  EXPECT_FALSE(set("--window", "12x"));
  EXPECT_FALSE(set("--window", "1.5"));
  EXPECT_FALSE(set("--window", ""));
  EXPECT_EQ(out, 99);
  EXPECT_TRUE(set("--window", "-3"));
  EXPECT_EQ(out, -3);

  uint64_t uout = 99;
  const FlagSetter uset = Integer(&uout);
  EXPECT_FALSE(uset("--seed", "-3"));  // no wraparound
  EXPECT_FALSE(uset("--seed", "7up"));
  EXPECT_EQ(uout, 99u);
  EXPECT_TRUE(uset("--seed", "7"));
  EXPECT_EQ(uout, 7u);
}

TEST(CliFlagsTest, PipelineFlagsErrorInsteadOfSilentZero) {
  PipelineArgs args;
  const FlagTable table = Family(PipelineFlags(&args));
  EXPECT_FALSE(Parse(table, {"--epsilon-global", "oops"}));
  EXPECT_EQ(args.epsilon_global, 0.5);  // default untouched
  EXPECT_FALSE(Parse(table, {"--epsilon-local", "0.3x"}));
  EXPECT_FALSE(Parse(table, {"--m", "ten"}));
  EXPECT_FALSE(Parse(table, {"--m", "0"}));  // range-checked, not just syntax
  EXPECT_FALSE(Parse(table, {"--shards", "2x"}));
  EXPECT_FALSE(Parse(table, {"--seed", "0xbeef"}));
  EXPECT_TRUE(Parse(table, {"--epsilon-global", "0.75"}));
  EXPECT_EQ(args.epsilon_global, 0.75);
}

TEST(CliFlagsTest, ThreadCountsAreRangeCheckedNotWrapped) {
  // 2^32 + 2 would wrap to 2 workers through a plain unsigned cast.
  unsigned threads = 7;
  const FlagSetter set = Integer(&threads);
  EXPECT_FALSE(set("--threads", "4294967298"));
  EXPECT_FALSE(set("--threads", "-1"));
  EXPECT_EQ(threads, 7u);  // never clobbered on failure
  EXPECT_TRUE(set("--threads", "3"));
  EXPECT_EQ(threads, 3u);
  PipelineArgs args;
  EXPECT_FALSE(Parse(Family(PipelineFlags(&args)),
                     {"--threads", "4294967298"}));
  EXPECT_EQ(args.threads, 0u);
}

TEST(CliFlagsTest, ThreadsSizesTheServicePool) {
  // One thread-count flag for every service CLI: --threads reaches the
  // dispatcher's pool through MakeServiceConfig.
  ServiceArgs args;
  ASSERT_TRUE(Parse(Family(ServiceFlags(&args)), {"--threads", "3"}));
  ServiceConfig config;
  ASSERT_TRUE(MakeServiceConfig(args, &config));
  EXPECT_EQ(config.pool_threads, 3u);
  // The default leaves the size to the dispatcher (max(2, cores)).
  ServiceConfig defaults;
  ASSERT_TRUE(MakeServiceConfig(ServiceArgs{}, &defaults));
  EXPECT_EQ(defaults.pool_threads, 0u);
}

TEST(CliFlagsTest, RetiredExecutionFlagsAreUnknown) {
  // The kNN strategy and a second pool-size spelling are no flags any
  // more (spelled in pieces so a grep for the flags finds no live use);
  // every tool reports them as unknown, a usage error.
  AnonymizeArgs anonymize;
  StreamCliArgs stream;
  ServeArgs serve;
  EdgeArgs edge;
  for (const FlagTable& table :
       {AnonymizeFlags(&anonymize), StreamCliFlags(&stream),
        ServeFlags(&serve), EdgeFlags(&edge)}) {
    EXPECT_FALSE(Parse(table, {std::string("--") + "strategy", "linear"}));
    EXPECT_FALSE(Parse(table, {std::string("--") + "pool-threads", "3"}));
  }
  FrequencyRandomizerConfig config;
  ASSERT_TRUE(MakePipelineConfig(serve.common.pipeline, &config));
  EXPECT_EQ(config.strategy, SearchStrategy::kBottomUpDown);
}

TEST(CliFlagsTest, OrderAcceptsOnlyGlobalOrLocal) {
  // A misspelled order is a usage error, not a silent global-first run.
  PipelineArgs args;
  FrequencyRandomizerConfig config;
  for (const char* bad : {"lcoal", "Local", "", "global-first"}) {
    args.order = bad;
    EXPECT_FALSE(MakePipelineConfig(args, &config)) << "'" << bad << "'";
  }
  args.order = "local";
  ASSERT_TRUE(MakePipelineConfig(args, &config));
  EXPECT_EQ(config.order, MechanismOrder::kLocalFirst);
  args.order = "global";
  ASSERT_TRUE(MakePipelineConfig(args, &config));
  EXPECT_EQ(config.order, MechanismOrder::kGlobalFirst);
}

TEST(CliFlagsTest, StreamConfigAlwaysRunsTheSharedIndexAudit) {
  // The audit has one path (one shared index build); the former A/B
  // switches are no longer pipeline flags.
  PipelineArgs args;
  const FlagTable table = Family(PipelineFlags(&args));
  EXPECT_FALSE(Parse(table, {"--no-shared-index"}));
  EXPECT_FALSE(Parse(table, {"--shared-index"}));

  FrequencyRandomizerConfig pipeline;
  ASSERT_TRUE(MakePipelineConfig(args, &pipeline));
  StreamArgs stream;
  StreamConfig stream_config;
  ASSERT_TRUE(MakeStreamConfig(stream, args, pipeline, &stream_config));
  EXPECT_TRUE(stream_config.batch.audit.enabled);
  EXPECT_EQ(stream_config.batch.audit.strategy, pipeline.strategy);
  EXPECT_EQ(stream_config.batch.audit.index_levels, pipeline.index_levels);
}

TEST(CliFlagsTest, StreamFlagsErrorInsteadOfSilentZero) {
  StreamArgs args;
  const FlagTable table = Family(StreamFlags(&args));
  EXPECT_FALSE(Parse(table, {"--window", "big"}));
  EXPECT_EQ(args.window, 1000u);
  EXPECT_FALSE(Parse(table, {"--budget", "3..0"}));
  EXPECT_EQ(args.budget, 0.0);
  EXPECT_FALSE(Parse(table, {"--per-object-budget", "x"}));
  EXPECT_FALSE(Parse(table, {"--close-after-ms", "-1"}));
  EXPECT_TRUE(Parse(table, {"--window", "40"}));
  EXPECT_EQ(args.window, 40u);
  EXPECT_TRUE(Parse(table, {"--budget", "3.0"}));
  EXPECT_EQ(args.budget, 3.0);
  // Shard dispatch has one path (the pool); the retired A/B switch is no
  // stream flag any more (spelled in pieces so a grep for the flag finds
  // no live use).
  EXPECT_FALSE(Parse(table, {std::string("--") + "dispatch", "static"}));
}

TEST(CliFlagsTest, PrivacyParametersMustBeFiniteAndNonNegative) {
  // inf is no noise at all, nan compares false against every budget, and
  // a negative budget is meaningless: each is a usage error in every tool
  // that takes the flag. 0 keeps its meaning (disabled / track only).
  AnonymizeArgs anonymize;
  StreamCliArgs stream;
  ServeArgs serve;
  EdgeArgs edge;
  const std::vector<FlagTable> tables = {
      AnonymizeFlags(&anonymize), StreamCliFlags(&stream),
      ServeFlags(&serve), EdgeFlags(&edge)};
  int checked = 0;
  for (const FlagTable& table : tables) {
    for (const char* flag : {"--epsilon-global", "--epsilon-local",
                             "--budget", "--per-object-budget"}) {
      if (!Parse(table, {flag, "0"})) continue;  // not this tool's flag
      ++checked;
      for (const char* bad : {"inf", "-inf", "nan", "-1", "-0.25"}) {
        EXPECT_FALSE(Parse(table, {flag, bad})) << table.synopsis << ' '
                                                << flag << ' ' << bad;
      }
    }
  }
  EXPECT_EQ(checked, 2 + 3 * 4);  // anonymize takes the two epsilons
  EXPECT_EQ(anonymize.pipeline.epsilon_global, 0.0);
  EXPECT_EQ(serve.common.stream.budget, 0.0);
}

TEST(CliFlagsTest, EachCliTableDeclaresEveryFlagOnce) {
  AnonymizeArgs anonymize;
  StreamCliArgs stream;
  ServeArgs serve;
  EdgeArgs edge;
  for (const FlagTable& table :
       {AnonymizeFlags(&anonymize), StreamCliFlags(&stream),
        ServeFlags(&serve), EdgeFlags(&edge)}) {
    std::set<std::string> names;
    for (const Flag& flag : table.flags) {
      EXPECT_TRUE(names.insert(flag.name).second)
          << flag.name << " declared twice in '" << table.synopsis << "'";
    }
  }
}

TEST(CliFlagsTest, NetworkFlagsBelongToTheirTier) {
  // frt_serve listens, frt_edge connects, frt_stream does neither: a
  // network flag outside its tool is refused, never parsed and ignored.
  StreamCliArgs stream;
  const FlagTable stream_table = StreamCliFlags(&stream);
  EXPECT_FALSE(Parse(stream_table, {"--listen", "unix:/tmp/s"}));
  EXPECT_FALSE(Parse(stream_table, {"--listen-conns", "1"}));
  EXPECT_FALSE(Parse(stream_table, {"--connect", "unix:/tmp/s"}));
  ServeArgs serve;
  const FlagTable serve_table = ServeFlags(&serve);
  EXPECT_FALSE(Parse(serve_table, {"--connect", "unix:/tmp/s"}));
  EXPECT_TRUE(
      Parse(serve_table, {"--listen", "unix:/tmp/s", "--listen-conns", "2"}));
  EXPECT_EQ(serve.listen, "unix:/tmp/s");
  EXPECT_EQ(serve.listen_conns, 2u);
  EdgeArgs edge;
  const FlagTable edge_table = EdgeFlags(&edge);
  EXPECT_FALSE(Parse(edge_table, {"--listen", "unix:/tmp/s"}));
  EXPECT_FALSE(Parse(edge_table, {"--listen-conns", "1"}));
  EXPECT_TRUE(Parse(edge_table, {"--connect", "tcp:localhost:7000"}));
  EXPECT_EQ(edge.connect, "tcp:localhost:7000");
}

TEST(CliFlagsTest, EndpointsAreValidatedWhenParsed) {
  ServeArgs serve;
  const FlagTable serve_table = ServeFlags(&serve);
  EXPECT_FALSE(Parse(serve_table, {"--listen", "/tmp/no-scheme.sock"}));
  EXPECT_FALSE(Parse(serve_table, {"--admin-listen", "tcp:host"}));
  EXPECT_TRUE(serve.listen.empty());
  EXPECT_TRUE(serve.common.obs.admin_listen.empty());
  EdgeArgs edge;
  EXPECT_FALSE(Parse(EdgeFlags(&edge), {"--connect", "unix:"}));
  EXPECT_TRUE(edge.connect.empty());
}

TEST(CliFlagsTest, LocalInputsAccumulate) {
  ServeArgs serve;
  ASSERT_TRUE(Parse(ServeFlags(&serve),
                    {"--input", "a.csv", "--input", "b=dir/c.csv"}));
  ASSERT_EQ(serve.local.inputs.size(), 2u);
  EXPECT_EQ(serve.local.inputs[0].feed, "a");
  EXPECT_EQ(serve.local.inputs[1].feed, "b");
  EXPECT_EQ(serve.local.inputs[1].path, "dir/c.csv");
}

TEST(CliFlagsTest, DurabilityFlagsParseAndValidate) {
  DurabilityArgs args;
  const FlagTable table = Family(DurabilityFlags(&args));
  EXPECT_TRUE(Parse(table, {"--state-dir", "/tmp/s"}));
  EXPECT_EQ(args.state_dir, "/tmp/s");
  EXPECT_FALSE(Parse(table, {"--checkpoint-interval-ms", "0"}));
  EXPECT_FALSE(Parse(table, {"--checkpoint-interval-ms", "5s"}));
  EXPECT_EQ(args.checkpoint_interval_ms, 1000);
  EXPECT_TRUE(Parse(table, {"--metrics", "-"}));
  EXPECT_TRUE(Parse(table, {"--metrics-interval-ms", "250"}));
  EXPECT_EQ(args.metrics_interval_ms, 250);
  // --metrics-per-feed is a switch: the next argument is a flag of its
  // own, not its value.
  EXPECT_TRUE(Parse(table, {"--metrics-per-feed", "--metrics", "-"}));
  EXPECT_TRUE(args.metrics_per_feed);
  MetricsExporter::Options options = MakeMetricsOptions(args);
  EXPECT_EQ(options.path, "-");
  EXPECT_EQ(options.interval_ms, 250);
  EXPECT_TRUE(options.per_feed);
  // Flags of other families are not this family's.
  EXPECT_FALSE(Parse(table, {"--window", "40"}));
}

TEST(CliFlagsTest, ObservabilityFlagsParseAndValidate) {
  ObservabilityArgs args;
  const FlagTable table = Family(ObservabilityFlags(&args));
  EXPECT_TRUE(Parse(table, {"--trace-out", "t.json"}));
  EXPECT_EQ(args.trace_out, "t.json");
  EXPECT_FALSE(Parse(table, {"--trace-buffer-events", "0"}));  // >= 1
  EXPECT_FALSE(Parse(table, {"--trace-buffer-events", "4k"}));
  EXPECT_EQ(args.trace_buffer_events, uint64_t{1} << 16);  // default kept
  EXPECT_TRUE(Parse(table, {"--trace-buffer-events", "4096"}));
  EXPECT_EQ(args.trace_buffer_events, 4096u);
  // --metrics-histograms is gone (frt_stage lines are always on with
  // --metrics), and flags of other families are not this family's.
  EXPECT_FALSE(Parse(table, {"--metrics-histograms"}));
  EXPECT_FALSE(Parse(table, {"--metrics", "-"}));
}

TEST(CliFlagsTest, MissingValueIsAnError) {
  StreamArgs args;
  EXPECT_FALSE(Parse(Family(StreamFlags(&args)), {"--budget"}));
}

}  // namespace
}  // namespace frt::cli
