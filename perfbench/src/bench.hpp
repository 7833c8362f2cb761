// Shared types of the perf_bench workloads: the run configuration, the
// report a workload fills, and small measurement helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< nominal length of the measured phase
  bool trace = false;     ///< traced run: per-layer metrics instead
  std::string scratch;    ///< per-run scratch directory (archives, sockets)
};

/// What one workload run produces. `metrics` carries the end-to-end names
/// (untraced run) or the per-layer names (traced run); `info` lines are
/// printed by name and unit but are not part of the result object.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> metrics;
  struct Info {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Info> info;

  /// Counts one operation (a trial, a request or a cross-check); a false
  /// `ok` counts it as failed and keeps the message.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Number of setup repetitions whose median is reported as setup_s.
inline constexpr int kSetupRepeats = 301;

/// Median wall time of kSetupRepeats calls of `setup`. `teardown` runs
/// untimed before each call, to release what the previous call built. The
/// first call is the cold one: the time from process start (the clock's
/// epoch, taken first thing in main) to its end is noted as setup_cold_s.
template <typename Setup, typename Teardown>
double median_setup_seconds(Report& report, Setup&& setup, Teardown&& teardown) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const double t0 = now_s();
    setup();
    const double t1 = now_s();
    samples.push_back(t1 - t0);
    if (i == 0) report.note("setup_cold_s", t1, "s");
  }
  return median(std::move(samples));
}

void run_fig1_seq(const RunConfig& cfg, Report& report);
void run_k32_collapsed(const RunConfig& cfg, Report& report);
void run_sweep_grid(const RunConfig& cfg, Report& report);
void run_service_mix(const RunConfig& cfg, Report& report);

}  // namespace perfbench
