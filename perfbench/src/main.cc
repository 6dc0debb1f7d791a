// frt_bench — helper binary of the end-to-end benchmark (perfbench/run.py).
//
//   frt_bench gen    ...  seeded raw inputs (dataset CSV or multi-feed CSV
//                         plus its open-loop arrival schedule)
//   frt_bench check  ...  output checks + privacy/utility of a published CSV
//   frt_bench layers ...  traced layer driver over the library's public API
//   frt_bench feed   ...  open-loop generator + output timestamper for
//                         frt_serve
//
// Every subcommand prints one JSON object on stdout and exits 0 on success,
// 1 on a failed check or runtime error, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_tool.h"
#include "common/strings.h"

namespace frt::bench {

bool Flags::Parse(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "frt_bench: expected --flag value, got '%s'\n",
                   argv[i]);
      return false;
    }
    values_[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  return true;
}

std::string Flags::Str(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? std::string() : it->second;
}

int64_t Flags::Int(const std::string& key, int64_t def, bool* ok) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  Result<int64_t> v = ParseInt64(it->second);
  if (!v.ok()) {
    std::fprintf(stderr, "frt_bench: bad integer for --%s: '%s'\n",
                 key.c_str(), it->second.c_str());
    *ok = false;
    return def;
  }
  return *v;
}

double Flags::Double(const std::string& key, double def, bool* ok) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  Result<double> v = ParseDouble(it->second);
  if (!v.ok()) {
    std::fprintf(stderr, "frt_bench: bad number for --%s: '%s'\n",
                 key.c_str(), it->second.c_str());
    *ok = false;
    return def;
  }
  return *v;
}

void JsonObject::Num(const std::string& key, double value) {
  // Non-finite values are not JSON; a metric that cannot be computed is
  // reported as null so the consumer notices instead of reading garbage.
  fields_.emplace_back(key, std::isfinite(value) ? StrFormat("%.9g", value)
                                                 : std::string("null"));
}

void JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace frt::bench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s gen|check|layers|feed --flag value ...\n",
                 argv[0]);
    return 2;
  }
  frt::bench::Flags flags;
  if (!flags.Parse(argc - 2, argv + 2)) return 2;
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "gen") == 0) return frt::bench::RunGen(flags);
  if (std::strcmp(cmd, "check") == 0) return frt::bench::RunCheck(flags);
  if (std::strcmp(cmd, "layers") == 0) return frt::bench::RunLayers(flags);
  if (std::strcmp(cmd, "feed") == 0) return frt::bench::RunFeed(flags);
  std::fprintf(stderr, "frt_bench: unknown subcommand '%s'\n", cmd);
  return 2;
}
