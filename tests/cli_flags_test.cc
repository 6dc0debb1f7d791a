// Locks the strict numeric CLI flag parsing in tools/cli_common.h: a
// malformed value ("oops", "1.5x", "") must be a reported usage error
// naming the offending flag — never the silent zero atof/atoi would
// produce (a zero budget that refuses every window with no diagnostic).

#include "cli_common.h"

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
  StreamRunnerConfig stream_config;
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
  // --metrics-histograms is a bare flag: no value consumed.
  {
    std::string f = "--metrics-histograms";
    char* argv[] = {f.data()};
    int i = 0;
    EXPECT_EQ(ParseObservabilityFlag(1, argv, &i, &args),
              FlagParse::kConsumed);
    EXPECT_EQ(i, 0);
    EXPECT_TRUE(args.metrics_histograms);
  }
  DurabilityArgs durability;
  MetricsExporter::Options options = MakeMetricsOptions(durability, args);
  EXPECT_TRUE(options.histograms);
  // Histogram lines stay off unless the flag was given.
  EXPECT_FALSE(MakeMetricsOptions(durability).histograms);
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
