// frt_bench check — output checks plus privacy and utility of one release.
//
//   frt_bench check --input RAW.csv --output PUBLISHED.csv [--multi-feed 1]
//
// Checks that every output row parses and that every input trajectory key
// (`traj_id`, or `feed,traj_id` with --multi-feed) appears in the output
// exactly once, as one contiguous block of rows, with no key the input
// lacks. Then scores the release against the raw input:
//   la_s — spatial linking accuracy of the attack model (attack/linker)
//          trained on the input: the privacy metric;
//   inf  — point-based information loss (metrics/utility).
// Prints one JSON object; exits 1 when a check fails.

#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/linker.h"
#include "bench_tool.h"
#include "metrics/utility.h"
#include "traj/io.h"

namespace frt::bench {
namespace {

struct Block {
  std::string key;
  Trajectory trajectory;
};

struct ParsedCsv {
  std::vector<Block> blocks;  ///< contiguous same-key runs, in file order
  size_t rows = 0;
  size_t bad_rows = 0;
  bool opened = false;
};

ParsedCsv ParseFile(const std::string& path, bool multi_feed) {
  ParsedCsv parsed;
  std::ifstream in(path);
  if (!in.is_open()) return parsed;
  parsed.opened = true;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    ++parsed.rows;
    std::string_view body = line;
    std::string feed;
    if (multi_feed) {
      const size_t comma = line.find(',');
      if (comma == std::string::npos || comma == 0) {
        ++parsed.bad_rows;
        continue;
      }
      feed = line.substr(0, comma + 1);
      body = body.substr(comma + 1);
    }
    const auto record = ParseCsvRecord(body, lineno);
    if (!record.ok() || !record->has_value()) {
      ++parsed.bad_rows;
      continue;
    }
    const std::string key = feed + std::to_string((*record)->id);
    if (parsed.blocks.empty() || parsed.blocks.back().key != key) {
      parsed.blocks.push_back({key, Trajectory((*record)->id)});
    }
    parsed.blocks.back().trajectory.Append((*record)->p, (*record)->t);
  }
  return parsed;
}

}  // namespace

int RunCheck(const Flags& flags) {
  bool ok = true;
  const std::string input_path = flags.Str("input");
  const std::string output_path = flags.Str("output");
  const bool multi_feed = flags.Int("multi-feed", 0, &ok) != 0;
  if (!ok || input_path.empty() || output_path.empty()) {
    std::fprintf(stderr,
                 "usage: frt_bench check --input RAW --output PUBLISHED "
                 "[--multi-feed 1]\n");
    return 2;
  }
  ParsedCsv input = ParseFile(input_path, multi_feed);
  ParsedCsv output = ParseFile(output_path, multi_feed);
  if (!input.opened || !output.opened || input.bad_rows > 0) {
    std::fprintf(stderr, "frt_bench check: cannot read %s or %s\n",
                 input_path.c_str(), output_path.c_str());
    return 1;
  }

  // Trajectory ids are unique across feeds in the generated inputs, so the
  // scoring datasets can drop the feed tag.
  Dataset original;
  std::unordered_map<std::string, int> blocks_per_key;
  for (Block& b : input.blocks) {
    blocks_per_key.emplace(b.key, 0);
    if (!original.Add(std::move(b.trajectory)).ok()) {
      std::fprintf(stderr, "frt_bench check: duplicate input id in %s\n",
                   input_path.c_str());
      return 1;
    }
  }
  Dataset published;
  size_t extra = 0;
  size_t duplicated = 0;
  for (Block& b : output.blocks) {
    auto it = blocks_per_key.find(b.key);
    if (it == blocks_per_key.end()) {
      ++extra;
      continue;
    }
    if (++it->second == 2) ++duplicated;
    if (it->second == 1) (void)published.Add(std::move(b.trajectory));
  }
  size_t missing = 0;
  for (const auto& [key, count] : blocks_per_key) {
    if (count == 0) ++missing;
  }
  const bool passed =
      output.bad_rows == 0 && missing == 0 && duplicated == 0 && extra == 0;

  JsonObject result;
  result.Bool("ok", passed);
  result.Int("rows", static_cast<int64_t>(output.rows));
  result.Int("bad_rows", static_cast<int64_t>(output.bad_rows));
  result.Int("trajectories_in", static_cast<int64_t>(original.size()));
  result.Int("trajectories_out", static_cast<int64_t>(published.size()));
  result.Int("missing", static_cast<int64_t>(missing));
  result.Int("duplicated", static_cast<int64_t>(duplicated));
  result.Int("extra", static_cast<int64_t>(extra));
  result.Int("points_in", static_cast<int64_t>(original.TotalPoints()));
  result.Int("points_out", static_cast<int64_t>(published.TotalPoints()));
  if (!published.empty()) {
    const BBox region = original.Bounds();
    Linker linker(region);
    linker.Train(original);
    result.Num("la_s",
               linker.LinkingAccuracy(published, SignatureType::kSpatial));
    result.Num("inf",
               UtilityEvaluator(region).InformationLoss(original, published));
  }
  std::printf("%s\n", result.Render().c_str());
  return passed ? 0 : 1;
}

}  // namespace frt::bench
