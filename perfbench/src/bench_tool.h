// Shared plumbing of frt_bench, the benchmark's helper binary: flag parsing
// and a minimal JSON object writer. Each subcommand lives in its own file.

#ifndef FRT_PERFBENCH_BENCH_TOOL_H_
#define FRT_PERFBENCH_BENCH_TOOL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace frt::bench {

/// `--key value` pairs of one subcommand invocation.
class Flags {
 public:
  /// Returns false (and reports) on a stray positional argument or a flag
  /// without a value.
  bool Parse(int argc, char** argv);

  /// The value of --key, or "" when absent.
  std::string Str(const std::string& key) const;
  /// Strict numeric getters: a malformed value is reported and the default
  /// is NOT silently used — `ok` is cleared instead.
  int64_t Int(const std::string& key, int64_t def, bool* ok) const;
  double Double(const std::string& key, double def, bool* ok) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Insertion-ordered flat JSON object of numbers and booleans, printed on
/// one line.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void Bool(const std::string& key, bool value);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

int RunGen(const Flags& flags);
int RunCheck(const Flags& flags);
int RunLayers(const Flags& flags);
int RunFeed(const Flags& flags);

}  // namespace frt::bench

#endif  // FRT_PERFBENCH_BENCH_TOOL_H_
