#pragma once
// Shared plumbing of the perfbench binary: command-line arguments, the
// monotonic clock every measurement uses, order statistics, and the run
// report that main() prints as one JSON line for run.py.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qgraph/graph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Only build the workload's system and make its warm-up call, then
  /// report setup_s (run.py takes the median over several such processes).
  bool setup_only = false;
  /// Offered load of service_mix, requests per second (frozen in
  /// BENCHMARK.json's command).
  double service_rate = 0.0;
  /// Where the traced run writes its Chrome trace-event JSON ("" = skip).
  std::string trace_out;
};

/// Seconds on the steady clock (arbitrary origin).
double now_s() noexcept;

using qq::util::mean;
using qq::util::median;

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// The highest percentile that still has at least ten samples above it
/// (nearest rank N - 10); the median when there are fewer than 20 samples.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
Tail tail_of(std::vector<double> values);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Seed stream derived from (seed, salt): independent per purpose so adding
/// a draw to one stream never shifts another.
qq::util::Rng stream(std::uint64_t seed, std::uint64_t salt);

/// `g` under a random vertex relabeling, with its edges inserted in random
/// order — an isomorphic copy the canonical cache fingerprint must match.
qq::graph::Graph relabeled(const qq::graph::Graph& g, qq::util::Rng& rng);

/// Everything one run reports. Serialized as one JSON object.
class Report {
 public:
  void metric(const std::string& name, double value);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  /// A correctness check; any failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// A cut value the run produced, keyed so run.py can compare it with
  /// other runs of the same workload and seed.
  void cut(const std::string& key, double value);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  bool ok() const noexcept;
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  /// Values are JSON literals (numbers or quoted strings).
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, double>> cuts_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
};

void run_qaoa2_sim(const Args& args, Report& report);
void run_qaoa2_classic(const Args& args, Report& report);
void run_service_mix(const Args& args, Report& report);

}  // namespace perfbench
