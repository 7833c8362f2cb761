// service_mix: an in-process SweepServer on a scratch unix socket, with a
// disk cache directory in scratch and an LRU smaller than the working set,
// driven by one closed-loop client that opens one connection per request
// (as ppsim_client does). The seeded mix interleaves cold submits of new
// small grids, warm re-submits of earlier grids (recent ones hit memory,
// older ones disk), and stats requests. A traced run replays the same mix
// against a fresh server with spans around each client call, then times
// the layers underneath directly: SweepService::run_job without the socket,
// CellCache lookups and inserts on the mix's own canonical keys, and
// JsonValue::parse of the request lines.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/cache/cell_cache.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/net/server.hpp"
#include "ppsim/net/socket.hpp"
#include "ppsim/util/json.hpp"
#include "ppsim/util/json_parse.hpp"
#include "ppsim/util/rng.hpp"

namespace perfbench {

namespace {

using namespace ppsim;

constexpr std::size_t kTrialsPerCell = 4;
/// A grid is kGridSide n values by kGridSide k values.
constexpr std::size_t kGridSide = 5;
constexpr std::size_t kCellsPerGrid = kGridSide * kGridSide;
/// LRU capacity in cells: two grids' worth, far below the working set.
constexpr std::size_t kCacheCells = 2 * kCellsPerGrid;
/// Warm submits per run; at least 1000 so ten samples lie beyond p99.
constexpr std::size_t kMinWarm = 1000;
/// Warm requests replayed in-process (without the socket) when traced.
constexpr std::size_t kDirectJobs = 50;

struct Grid {
  std::vector<std::int64_t> ns;
  std::vector<std::int64_t> ks;
  std::int64_t seed = 0;
};

enum class Kind { kCold, kWarm, kStats };

struct Request {
  Kind kind;
  std::size_t grid = 0;
  std::string line;
};

std::string json_int_array(const std::vector<std::int64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(values[i]);
  }
  return out + "]";
}

std::string submit_line(const Grid& g) {
  const Span span("json.render");
  return JsonObject()
      .field("type", "submit")
      .field("name", "service_mix")
      .field_json("n", json_int_array(g.ns))
      .field_json("k", json_int_array(g.ks))
      .field("trials", static_cast<std::int64_t>(kTrialsPerCell))
      .field("seed", g.seed)
      .field("threads", std::int64_t{1})
      .str();
}

std::string stats_line() {
  const Span span("json.render");
  return JsonObject().field("type", "stats").str();
}

/// `count` distinct values of `pool`, sorted.
std::vector<std::int64_t> pick_sorted(std::vector<std::int64_t> pool, std::size_t count,
                                      Xoshiro256pp& rng) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = rng.bounded(pool.size());
    out.push_back(pool[j]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The seeded request mix: `cold` new grids, `warm` re-submits and
/// `stats` requests, interleaved at random, starting with a cold submit.
/// Half the warm re-submits pick one of the two latest grids, the rest any
/// earlier grid; with disk hits promoting cells into the LRU, about 30% of
/// the hits come from memory and 70% from disk.
std::vector<Request> make_mix(std::uint64_t seed, std::size_t cold,
                              std::size_t warm, std::size_t stats,
                              std::vector<Grid>& grids) {
  Xoshiro256pp rng(seed);
  const std::vector<std::int64_t> n_pool = {150, 200, 300, 500, 800, 1200, 2000};
  const std::vector<std::int64_t> k_pool = {2, 3, 4, 5, 6, 7, 8};
  grids.clear();
  for (std::size_t g = 0; g < cold; ++g) {
    grids.push_back({pick_sorted(n_pool, kGridSide, rng), pick_sorted(k_pool, kGridSide, rng),
                     static_cast<std::int64_t>(rng() >> 12)});
  }
  std::vector<Request> mix;
  std::size_t left[3] = {cold, warm, stats};
  std::size_t submitted = 0;
  while (left[0] + left[1] + left[2] > 0) {
    std::size_t pick = 0;
    if (submitted > 0) {
      std::size_t r = rng.bounded(left[0] + left[1] + left[2]);
      while (r >= left[pick]) r -= left[pick++];
    }
    --left[pick];
    Request req{static_cast<Kind>(pick), 0, {}};
    if (req.kind == Kind::kCold) {
      req.grid = submitted++;
    } else if (req.kind == Kind::kWarm) {
      const bool recent = rng.bernoulli(0.5);
      const std::size_t span = recent ? std::min<std::size_t>(2, submitted) : submitted;
      req.grid = submitted - 1 - rng.bounded(span);
    }
    req.line = req.kind == Kind::kStats ? stats_line() : submit_line(grids[req.grid]);
    mix.push_back(std::move(req));
  }
  return mix;
}

struct Reply {
  bool ok = false;
  std::string error;
  std::string report;
  std::int64_t trials_executed = -1;
  std::int64_t cached_cells = -1;
  std::size_t bytes = 0;
};

/// One request on its own connection, read to the final line.
Reply round_trip(const std::string& socket_path, const std::string& line,
                 Kind kind) {
  Reply reply;
  try {
    net::LineChannel channel(net::connect_to(socket_path));
    if (!channel.write_line(line)) {
      reply.error = "write failed";
      return reply;
    }
    while (const std::optional<std::string> got = channel.read_line()) {
      reply.bytes += got->size() + 1;
      JsonValue v;
      {
        const Tally tally("json.parse_response");
        v = JsonValue::parse(*got);
      }
      const std::string& type = v.at("type").as_string();
      if (type == "error") {
        reply.error = v.get_string("error", "error line");
        return reply;
      }
      if (kind == Kind::kStats) {
        reply.ok = type == "stats";
        if (!reply.ok) reply.error = "unexpected reply type " + type;
        return reply;
      }
      if (type == "done") {
        reply.report = v.at("report").as_string();
        reply.trials_executed = v.at("trials_executed").as_int();
        reply.cached_cells = v.at("cached_cells").as_int();
        reply.ok = true;
        return reply;
      }
    }
    reply.error = "connection closed before the final line";
  } catch (const std::exception& e) {
    reply.error = e.what();
  }
  return reply;
}

/// Sum of a metric's per-trial values over every cell of a sweep report.
double report_sum(const std::string& report, const std::string& metric) {
  double total = 0.0;
  const JsonValue doc = JsonValue::parse(report);
  for (const JsonValue& cell : doc.at("cells").items()) {
    for (const JsonValue& m : cell.at("metrics").items()) {
      if (m.at("metric").as_string() != metric) continue;
      for (const JsonValue& x : m.at("values").items()) total += x.as_number();
    }
  }
  return total;
}

/// A SweepServer running on its own thread, stopped and joined on
/// destruction.
class RunningServer {
 public:
  explicit RunningServer(const std::string& dir) : socket_(dir + "/svc.sock") {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(cache_dir(dir));
    net::ServerConfig config;
    config.socket_path = socket_;
    config.service.cache_memory = kCacheCells;
    config.service.cache_dir = cache_dir(dir);
    server_ = std::make_unique<net::SweepServer>(config);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        failure_ = e.what();
      }
      finished_ = true;
    });
    // Up once a stats round trip succeeds. SweepServer binds its socket
    // inside run(), so the first connects may find no listener yet.
    const double deadline = now_s() + 10.0;
    while (!round_trip(socket_, stats_line(), Kind::kStats).ok) {
      if (finished_ || now_s() > deadline) {
        server_->stop();
        thread_.join();
        throw std::runtime_error("sweep server did not start on " + socket_ + ": " +
                                 (failure_.empty() ? "timed out" : failure_));
      }
      std::this_thread::yield();
    }
  }
  ~RunningServer() {
    server_->stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  static std::string cache_dir(const std::string& dir) { return dir + "/cache"; }
  const std::string& socket() const { return socket_; }
  net::SweepService& service() { return server_->service(); }

 private:
  std::string socket_;
  std::unique_ptr<net::SweepServer> server_;
  std::string failure_;             ///< written by thread_ before finished_
  std::atomic<bool> finished_{false};
  std::thread thread_;
};

/// Everything one pass over the mix measured.
struct MixResult {
  double wall_s = 0.0;
  std::vector<double> cold_s, warm_s, stats_s;
  std::vector<std::string> cold_reports;  ///< by grid
  double trials = 0.0;  ///< trials the service executed
  double effective = 0.0;
  double majority_wins = 0.0;
  double parallel_time_sum = 0.0;
  double response_bytes = 0.0;
  std::vector<std::size_t> report_hashes;  ///< in request order
};

MixResult run_mix(RunningServer& server, const std::vector<Request>& mix,
                  std::size_t grids, Report& report) {
  MixResult r;
  r.cold_reports.resize(grids);
  const double t0 = now_s();
  for (const Request& req : mix) {
    const char* name = req.kind == Kind::kCold   ? "net.submit_cold"
                       : req.kind == Kind::kWarm ? "net.submit_warm"
                                                 : "net.stats";
    const std::uint64_t trials_before = server.service().counters().trials_executed;
    const double s0 = now_s();
    Reply reply;
    {
      const Span span(name);
      reply = round_trip(server.socket(), req.line, req.kind);
    }
    const double dt = now_s() - s0;
    const std::uint64_t executed =
        server.service().counters().trials_executed - trials_before;
    r.response_bytes += static_cast<double>(reply.bytes);
    if (!reply.ok) {
      report.op(false, std::string(name) + ": " + reply.error);
      continue;
    }
    if (req.kind == Kind::kStats) {
      r.stats_s.push_back(dt);
      report.op(true, "");
      continue;
    }
    r.report_hashes.push_back(std::hash<std::string>{}(reply.report));
    if (req.kind == Kind::kCold) {
      r.cold_s.push_back(dt);
      r.cold_reports[req.grid] = reply.report;
      r.trials += static_cast<double>(executed);
      r.effective += report_sum(reply.report, "effective_interactions");
      r.majority_wins += report_sum(reply.report, "majority_win");
      r.parallel_time_sum += report_sum(reply.report, "parallel_time");
      const std::uint64_t expected = kCellsPerGrid * kTrialsPerCell;
      report.op(reply.cached_cells == 0 && executed == expected &&
                    reply.trials_executed == static_cast<std::int64_t>(expected),
                "cold submit of grid " + std::to_string(req.grid) + " ran " +
                    std::to_string(executed) + " trials");
      continue;
    }
    r.warm_s.push_back(dt);
    report.op(executed == 0 && reply.trials_executed == 0 &&
                  reply.cached_cells == static_cast<std::int64_t>(kCellsPerGrid) &&
                  reply.report == r.cold_reports[req.grid],
              "warm submit of grid " + std::to_string(req.grid) +
                  " ran trials or differs from its cold report");
  }
  r.wall_s = now_s() - t0;
  return r;
}

/// The traced-only measurements below the socket.
void measure_layers(RunningServer& server, const std::vector<Request>& mix,
                    const std::vector<Grid>& grids, const MixResult& traced,
                    const std::string& scratch, Report& report) {
  const cache::CellCacheStats cs = server.service().cache_stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  report.set("cache.hit_rate", lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0);
  report.set("cache.memory_hits", static_cast<double>(cs.memory_hits));
  report.set("cache.disk_hits", static_cast<double>(cs.disk_hits));
  report.set("cache.misses", static_cast<double>(cs.misses));
  report.set("cache.insertions", static_cast<double>(cs.insertions));
  report.set("cache.evictions", static_cast<double>(cs.evictions));

  // In-process jobs on warm requests: the service without the socket.
  std::vector<double> job_s;
  std::vector<double> parse_s;
  for (const Request& req : mix) {
    const double p0 = now_s();
    JsonValue request;
    {
      const Span span("json.parse");
      request = JsonValue::parse(req.line);
    }
    parse_s.push_back(now_s() - p0);
    if (req.kind != Kind::kWarm || job_s.size() >= kDirectJobs) continue;
    std::string report_json;
    const double j0 = now_s();
    {
      const Span span("net.run_job");
      server.service().run_job(request, [&](const std::string& line) {
        const JsonValue v = JsonValue::parse(line);
        if (v.at("type").as_string() == "done") report_json = v.at("report").as_string();
        return true;
      });
    }
    job_s.push_back(now_s() - j0);
    report.op(report_json == traced.cold_reports[req.grid],
              "in-process job report differs from the socket report");
  }
  report.set("net.job_s.p50", median(job_s));
  report.set("json.parse_s.p50", median(parse_s));
  report.set("net.stats_rtt_s.p50", median(traced.stats_s));
  report.set("net.response_bytes", traced.response_bytes);

  // Direct CellCache calls on the canonical keys of the mix's own cells,
  // with the service's capacity and a disk back of its own. The trial
  // function id is the benchmark's own label: lookup and insert cost does
  // not depend on matching the service's private key bytes.
  const std::string direct_dir = scratch + "/direct_cache";
  std::filesystem::remove_all(direct_dir);
  cache::CellCache direct({.memory_capacity = kCacheCells, .disk_dir = direct_dir});
  const std::string fn_id = "perfbench/service_mix";
  std::vector<std::string> keys;
  for (const Grid& g : grids) {
    SweepSpec spec;
    spec.name = "service_mix";
    spec.trials = kTrialsPerCell;
    spec.base_seed = static_cast<std::uint64_t>(g.seed);
    for (const std::int64_t n : g.ns) {
      for (const std::int64_t k : g.ks) {
        SweepCell cell;
        cell.n = static_cast<Count>(n);
        cell.k = static_cast<std::size_t>(k);
        cell.bias = static_cast<double>(
            static_cast<Count>(bounds::whp_bias(cell.n)));
        spec.cells.push_back(cell);
      }
    }
    const SweepRunner runner(spec);
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
      keys.push_back(cache::canonical_cell_key(runner.spec(), c, fn_id));
    }
  }
  TrialResult dummy;
  dummy.stabilized = true;
  dummy.winner = 0;
  const cache::CachedCellData data{
      kTrialsPerCell, kTrialsPerCell,
      std::vector<SweepMetrics>(kTrialsPerCell, consensus_metrics(dummy))};
  std::vector<double> insert_s;
  std::vector<double> lookup_s;
  for (const std::string& key : keys) {
    const double t0 = now_s();
    {
      const Span span("cache.insert");
      direct.insert(key, data);
    }
    insert_s.push_back(now_s() - t0);
  }
  for (const std::string& key : keys) {
    const double t0 = now_s();
    bool hit = false;
    {
      const Span span("cache.lookup");
      hit = direct.lookup(key).has_value();
    }
    lookup_s.push_back(now_s() - t0);
    report.op(hit, "direct cache lookup missed an inserted key");
  }
  report.set("cache.insert_s.p50", median(insert_s));
  report.set("cache.lookup_s.p50", median(lookup_s));
  report.set("json.render_s", span_seconds(collect_spans(), "json.render"));
}

}  // namespace

void run_service_mix(const RunConfig& cfg, Report& report) {
  const double seconds = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  // About 1 s of work per second on the reference host, 60% of it warm
  // submits (~2 ms each) and most of the rest cold ones (~45 ms each), so the
  // cache, net and json layers carry most of wall_s.
  const std::size_t cold = std::max<std::size_t>(2, std::lround(seconds * 8.0));
  const std::size_t warm = std::max<std::size_t>(kMinWarm, std::lround(seconds * 300.0));
  const std::size_t stats = warm / 10;

  std::vector<Grid> grids;
  std::vector<Request> mix;
  std::unique_ptr<RunningServer> server;
  const std::string untraced_dir = cfg.scratch + "/service";
  const std::string traced_dir = cfg.scratch + "/service_traced";
  const double setup_s = median_setup_seconds(
      report,
      [&] {
        mix = make_mix(cfg.seed, cold, warm, stats, grids);
        server = std::make_unique<RunningServer>(untraced_dir);
      },
      [&] {
        server.reset();
        mix.clear();
      });
  const MixResult untraced = run_mix(*server, mix, grids.size(), report);
  server.reset();

  if (!cfg.trace) {
    const double requests = static_cast<double>(mix.size());
    report.set("setup_s", setup_s);
    report.set("wall_s", untraced.wall_s);
    report.set("trials_per_s", untraced.trials / untraced.wall_s);
    report.set("interactions_per_s", untraced.effective / untraced.wall_s);
    report.set("op_s.p50", median(untraced.warm_s));
    report.note("submit_cold_s.p50", median(untraced.cold_s), "s");
    report.note("submit_warm_s.p50", median(untraced.warm_s), "s");
    report.note("submit_warm_s.p99", quantile(untraced.warm_s, 0.99), "s");
    report.note("submit_warm_samples", static_cast<double>(untraced.warm_s.size()), "count");
    report.note("stats_s.p50", median(untraced.stats_s), "s");
    report.note("requests_per_s", requests / untraced.wall_s, "1/s");
    report.note("majority_win_rate", untraced.majority_wins / untraced.trials, "ratio");
    report.note("mean_parallel_time", untraced.parallel_time_sum / untraced.trials, "time");
    std::filesystem::remove_all(untraced_dir);
    return;
  }

  clear_spans();
  set_tracing(true);
  {
    // Re-rendered under tracing (same seed, same lines) for json.render.
    mix = make_mix(cfg.seed, cold, warm, stats, grids);
    RunningServer traced_server(traced_dir);
    const MixResult traced = run_mix(traced_server, mix, grids.size(), report);
    report.op(traced.report_hashes == untraced.report_hashes,
              "traced service reports differ from the untraced ones");
    report.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    measure_layers(traced_server, mix, grids, traced, cfg.scratch, report);
  }
  set_tracing(false);
  std::filesystem::remove_all(untraced_dir);
  std::filesystem::remove_all(traced_dir);
  std::filesystem::remove_all(cfg.scratch + "/direct_cache");
}

}  // namespace perfbench
