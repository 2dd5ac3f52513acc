#pragma once
// Tiny shared command-line helper for the benches and examples, so each
// binary stops hand-rolling the same warmup/window/threads/pattern parsing.
//
// Flags are `--name=value` or `--name value`; bare `--name` registers as
// present (boolean). Unknown flags are collected so callers can reject
// typos. The NoC-specific conveniences (MeasureOptions / ExperimentOptions
// / TrafficPattern extraction) live in noc/experiment.hpp and noc/traffic.hpp
// to keep common/ free of simulator types.

#include <cstdint>
#include <string>
#include <vector>

namespace noc {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& flag) const;
  int64_t get_int(const std::string& flag, int64_t dflt) const;
  double get_double(const std::string& flag, double dflt) const;
  std::string get_str(const std::string& flag, const std::string& dflt) const;
  /// A numeric flag (T = int64_t or double) that must be >= `lo`; a lower
  /// value exits 1 with `invalid --FLAG V: need >= LO`.
  template <typename T>
  T get_at_least(const std::string& flag, T dflt, T lo) const;

  /// --help / -h was passed.
  bool help() const { return help_; }

  /// Flags that were never looked up by any get_*/has call -- typo guard.
  /// Call after all lookups; prints to stderr and returns false if any.
  bool check_unused() const;

 private:
  struct Flag {
    std::string name;   // without leading dashes
    std::string value;  // empty for bare flags
    mutable bool used = false;
  };
  const Flag* find(const std::string& flag) const;

  std::vector<Flag> flags_;
  bool help_ = false;
};

/// Parse --step-threads (intra-network parallel stepping worker count,
/// NetworkConfig::step_threads). Defaults to `dflt` (1 = serial); exits
/// with a clear message on values < 1. Plain int, no simulator types, so
/// every bench and example shares one validation path.
int cli_step_threads(const CliArgs& args, int dflt = 1);

}  // namespace noc
