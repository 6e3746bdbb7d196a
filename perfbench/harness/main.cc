// perfbench_harness: the compiled half of the repository benchmark
// (perfbench/run.py is the entry point and the only caller).
//
//   perfbench_harness batch --workload W --seed S --seconds T --trace 0|1
//                          --workdir DIR
//   perfbench_harness serve-client --seed S --seconds T --trace 0|1
//                          --workdir DIR --router H:P --worker H:P ...
//                          --graphs-dir DIR --light DIGEST ... --heavy DIGEST
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, metrics (name -> value, unit, samples), provenance, errors.
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

RunConfig parse_config(int argc, char** argv) {
  RunConfig c;
  const char* workload = flag_value(argc, argv, "--workload");
  const char* seed = flag_value(argc, argv, "--seed");
  const char* seconds = flag_value(argc, argv, "--seconds");
  const char* trace = flag_value(argc, argv, "--trace");
  const char* workdir = flag_value(argc, argv, "--workdir");
  if (seed == nullptr || seconds == nullptr || trace == nullptr ||
      workdir == nullptr) {
    throw std::invalid_argument(
        "needs --seed S --seconds T --trace 0|1 --workdir DIR");
  }
  c.workload = workload != nullptr ? workload : "";
  c.seed = std::strtoull(seed, nullptr, 10);
  c.seconds = std::atof(seconds);
  c.trace = std::strcmp(trace, "1") == 0;
  c.workdir = workdir;
  if (c.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return c;
}

void print(const Report& r) {
  using dmis::json::Value;
  for (const std::string& e : r.errors) std::cout << "error: " << e << "\n";
  Value out = Value::object();
  out.set("correct", Value::boolean(r.failed == 0));
  out.set("attempted", Value::number(r.attempted));
  out.set("failed", Value::number(r.failed));
  Value metrics = Value::object();
  for (const Metric& m : r.metrics) {
    Value v = Value::object();
    v.set("value", Value::number(m.value));
    v.set("unit", Value::string(m.unit));
    v.set("samples", Value::number(m.samples));
    metrics.set(m.name, std::move(v));
  }
  out.set("metrics", std::move(metrics));
  Value prov = Value::object();
  for (const auto& [k, v] : dmis::bench::run_metadata()) {
    prov.set(k, Value::string(v));
  }
  for (const auto& [k, v] : r.provenance) prov.set(k, Value::string(v));
  out.set("provenance", std::move(prov));
  std::cout << out.dump() << "\n";
}

}  // namespace

void require_within_nproc(int count, const char* what) {
  const int cores = host_cores();
  if (count > cores) {
    throw std::invalid_argument(std::to_string(count) + " " + what +
                                " requested but only " +
                                std::to_string(cores) +
                                " cores are available");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness (batch|serve-client) ...\n";
    return 2;
  }
  dmis::bench::detail::process_timer();  // provenance wall_s counts from here
  if (!kTimingBuild) {
    std::cerr << "refusing to report timings from a " << DMIS_BUILD_TYPE
              << " (assertion or sanitizer) build; configure Release\n";
    return 2;
  }
  try {
    const RunConfig config = parse_config(argc, argv);
    const std::string mode = argv[1];
    Report report;
    if (mode == "batch") {
      report = run_batch_workload(config);
    } else if (mode == "serve-client") {
      report = run_serve_client(config, argc, argv);
    } else {
      std::cerr << "unknown mode: " << mode << "\n";
      return 2;
    }
    report.provenance.emplace_back("workload", config.workload);
    report.provenance.emplace_back("seed", std::to_string(config.seed));
    report.provenance.emplace_back("nproc", std::to_string(host_cores()));
    print(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
