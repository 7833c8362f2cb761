// perf_bench: runs one reference workload and prints its metrics.
//
//   perf_bench --workload fig1_seq|k32_collapsed|sweep_grid|service_mix
//              --seed N --seconds S --trace 0|1 --scratch DIR --out FILE
//              --commit ID [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 repeats the work
// untraced and traced and reports the per-layer metrics instead, writing
// the spans as Chrome trace-event JSON to --trace-out. Human-readable lines
// (fingerprint, informational metrics, failures) come first; the last line
// of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and --out receives the same result with the fingerprint and the
// informational metrics added. The exit code is 0 only when every
// operation and correctness check passed.
#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ppsim/kernels/round_kernel.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"trials_per_s", "trials/s"},
    {"interactions_per_s", "1/s"},
    {"op_s.p50", "s"},
    {"peak_rss_mb", "MB"},
};

/// Reported by every workload with --trace 1; a layer the workload does not
/// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"sweep.busy_s", "s"},
    {"sweep.idle_s", "s"},
    {"sweep.tail_s", "s"},
    {"sweep.tasks", "count"},
    {"sweep.steals", "count"},
    {"sweep.stolen_tasks", "count"},
    {"sweep.trials_run", "count"},
    {"sweep.render_s", "s"},
    {"sweep.report_bytes", "B"},
    {"engine.usd.ns_per_interaction", "ns"},
    {"engine.table.ns_per_interaction", "ns"},
    {"engine.interactions", "count"},
    {"collapsed.rounds", "count"},
    {"collapsed.tau_mean", "count"},
    {"collapsed.local_rounds", "count"},
    {"collapsed.clamped", "count"},
    {"collapsed.stage_s", "s"},
    {"kernels.scalar.advance_s", "s"},
    {"kernels.scalar.ns_per_round", "ns"},
    {"kernels.scalar.commit_s", "s"},
    {"kernels.avx2.advance_s", "s"},
    {"kernels.avx2.ns_per_round", "ns"},
    {"kernels.avx2.commit_s", "s"},
    {"io.record_s", "s"},
    {"io.read_s", "s"},
    {"io.archive_bytes", "B"},
    {"io.samples", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.memory_hits", "count"},
    {"cache.disk_hits", "count"},
    {"cache.misses", "count"},
    {"cache.insertions", "count"},
    {"cache.evictions", "count"},
    {"cache.lookup_s.p50", "s"},
    {"cache.insert_s.p50", "s"},
    {"net.stats_rtt_s.p50", "s"},
    {"net.job_s.p50", "s"},
    {"net.response_bytes", "B"},
    {"json.parse_s.p50", "s"},
    {"json.render_s", "s"},
    {"sweep.self_s", "s"},
    {"engine.self_s", "s"},
    {"collapsed.self_s", "s"},
    {"kernels.self_s", "s"},
    {"io.self_s", "s"},
    {"cache.self_s", "s"},
    {"net.self_s", "s"},
    {"json.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

constexpr const char* kLayers[] = {"sweep", "engine", "collapsed", "kernels",
                                   "io",    "cache",  "net",       "json"};

/// Shortest round-trip spelling of a finite double (JSON has no NaN).
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// The CPU's brand string, from cpuid (no file outside the checkout is read).
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

/// Host and build fingerprint; results compare only when these agree.
std::vector<std::pair<std::string, std::string>> fingerprint(const std::string& commit) {
  __builtin_cpu_init();
  return {
      {"cpu_model", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"avx2", __builtin_cpu_supports("avx2") ? "yes" : "no"},
      {"avx512f", __builtin_cpu_supports("avx512f") ? "yes" : "no"},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit},
      {"kernel_auto", ppsim::kernels::to_string(ppsim::kernels::auto_kind())},
  };
}

struct Args {
  RunConfig cfg;
  std::string out;
  std::string trace_out;
  std::string commit;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.cfg.seconds = std::stod(value);
      have_seconds = a.cfg.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.cfg.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      a.cfg.scratch = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      a.cfg.scratch.empty() || a.out.empty() || a.commit.empty()) {
    throw std::invalid_argument(
        "usage: perf_bench --workload NAME --seed N --seconds S --trace 0|1 "
        "--scratch DIR --out FILE --commit ID [--trace-out FILE]");
  }
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const RunConfig& cfg = args.cfg;
  const std::map<std::string, void (*)(const RunConfig&, Report&)> workloads = {
      {"fig1_seq", run_fig1_seq},
      {"k32_collapsed", run_k32_collapsed},
      {"sweep_grid", run_sweep_grid},
      {"service_mix", run_service_mix},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) {
    throw std::invalid_argument("unknown workload '" + cfg.workload +
                                "' (fig1_seq | k32_collapsed | sweep_grid | service_mix)");
  }

  const auto fp = fingerprint(args.commit);
  std::cout << "perf_bench workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << number(cfg.seconds) << " trace=" << cfg.trace << "\n";
  for (const auto& [key, value] : fp) std::cout << "  host " << key << ": " << value << "\n";

  Report report;
  try {
    it->second(cfg, report);
  } catch (const std::exception& e) {
    report.op(false, std::string("workload aborted: ") + e.what());
  }

  if (cfg.trace) {
    const std::vector<SpanRecord> spans = collect_spans();
    const std::map<std::string, double> self =
        self_seconds_by_layer(spans, collect_tallies());
    for (const char* layer : kLayers) {
      const auto s = self.find(layer);
      report.set(std::string(layer) + ".self_s", s == self.end() ? 0.0 : s->second);
    }
    report.set("trace.spans", static_cast<double>(spans.size()));
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, spans);
  } else {
    report.set("peak_rss_mb", peak_rss_mb());
  }
  report.note("error_rate",
              report.attempted == 0 ? 1.0
                                    : static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted),
              "ratio");
  report.note("attempted", static_cast<double>(report.attempted), "count");

  std::string metrics = "{";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto m = report.metrics.find(def.name);
    const double value = m == report.metrics.end() ? 0.0 : m->second;
    if (!cfg.trace && m == report.metrics.end()) {
      report.op(false, std::string("end-to-end metric missing: ") + def.name);
    }
    metrics += (first ? "" : ", ") + quoted(def.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(def.unit) + "}";
    first = false;
    std::cout << "  metric " << def.name << " = " << number(value) << " " << def.unit << "\n";
  };
  if (cfg.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  metrics += "}";
  for (const Report::Info& info : report.info) {
    std::cout << "  info " << info.name << " = " << number(info.value) << " " << info.unit << "\n";
  }
  for (const std::string& f : report.failures) std::cout << "  FAILED " << f << "\n";

  const bool correct = report.failed == 0 && report.attempted > 0;
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"metrics\": " + metrics + "}";
  {
    std::ofstream out(args.out);
    out << "{\"workload\": " << quoted(cfg.workload) << ", \"seed\": " << cfg.seed
        << ", \"seconds\": " << number(cfg.seconds) << ", \"trace\": " << cfg.trace
        << ", \"fingerprint\": {";
    for (std::size_t i = 0; i < fp.size(); ++i) {
      out << (i ? ", " : "") << quoted(fp[i].first) << ": " << quoted(fp[i].second);
    }
    out << "}, \"info\": {";
    for (std::size_t i = 0; i < report.info.size(); ++i) {
      out << (i ? ", " : "") << quoted(report.info[i].name)
          << ": {\"value\": " << number(report.info[i].value)
          << ", \"unit\": " << quoted(report.info[i].unit) << "}";
    }
    out << "}, \"result\": " << result << "}\n";
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::now_s();  // the clock's epoch: process start for setup_cold_s
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perf_bench: " << e.what() << "\n";
    return 2;
  }
}
