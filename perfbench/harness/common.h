// Shared pieces of the benchmark harness: the run configuration, the report
// every workload fills, and the small statistics helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/json.h"

namespace perfbench {

using dmis::bench::WallTimer;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout; every file the run writes
  /// lives below it.
  std::string workdir;
};

/// One named metric: value, unit and the number of samples it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What a workload run reports. `failed` counts every operation whose
/// output was wrong, whose counters diverged, or which returned an error.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  dmis::bench::BenchMeta provenance;
  /// One line per failure, printed before the result.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

/// Median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile, q in (0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// FNV-1a over the membership mask: the MIS checksum gated across trials.
inline std::uint64_t mis_checksum(const std::vector<char>& in_set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : in_set) {
    h ^= static_cast<std::uint8_t>(c != 0);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Refuses lane or connection counts above the host's core count: timings
/// taken with more runnable threads than cores measure the scheduler.
void require_within_nproc(int count, const char* what);

Report run_batch_workload(const RunConfig& config);
Report run_serve_client(const RunConfig& config, int argc, char** argv);

}  // namespace perfbench
