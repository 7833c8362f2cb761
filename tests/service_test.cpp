// SweepService + SweepServer: the job-service core and its socket front.
//
// The load-bearing invariants pinned here:
//   * a submit's end-of-job report is byte-identical to what an offline
//     SweepRunner produces for the ppsim_run-mirrored spec (the service is
//     a transport, never a second results path);
//   * re-submitting a spec serves every cell from the cache, re-executes
//     ZERO trials, and still returns the identical bytes;
//   * concurrent clients with overlapping specs get consistent answers and
//     a monotonically growing hit counter;
//   * finished connection threads are reaped, and start/stop is race-free.
#include "ppsim/net/server.hpp"
#include "ppsim/net/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/core/scenario.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/net/socket.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/json_parse.hpp"

namespace ppsim::net {
namespace {

constexpr Count kN = 300;
constexpr std::size_t kK = 2;
constexpr double kMaxParallel = 100000.0;

JsonValue submit_request(std::uint64_t seed = 7, std::size_t trials = 2) {
  return JsonValue::parse(
      R"({"type": "submit", "n": )" + std::to_string(kN) +
      R"(, "k": )" + std::to_string(kK) + R"(, "trials": )" +
      std::to_string(trials) + R"(, "seed": )" + std::to_string(seed) +
      R"(, "threads": 2})");
}

/// Runs one request through an in-process service, collecting every line.
std::vector<std::string> run_collect(SweepService& service,
                                     const JsonValue& request) {
  std::vector<std::string> lines;
  service.run_job(request, [&](const std::string& line) {
    lines.push_back(line);
    return true;
  });
  return lines;
}

/// The report string carried by the final done line.
std::string report_of(const std::vector<std::string>& lines) {
  EXPECT_FALSE(lines.empty());
  const JsonValue done = JsonValue::parse(lines.back());
  EXPECT_EQ(done.at("type").as_string(), "done");
  return done.at("report").as_string();
}

/// The offline oracle: the spec and trial body ppsim_run builds for
/// `--protocol usd --engine auto`, reimplemented here independently of the
/// service's own mirroring code.
std::string offline_report(std::uint64_t seed, std::size_t trials) {
  const Count bias = static_cast<Count>(bounds::whp_bias(kN));
  SweepSpec spec;
  spec.name = "ppsim_run";
  SweepCell cell;
  cell.n = kN;
  cell.k = kK;
  cell.bias = static_cast<double>(bias);
  cell.protocol = "usd";
  cell.engine = EngineKind::kSequential;
  spec.cells.push_back(cell);
  spec.trials = trials;
  spec.base_seed = seed;
  spec.threads = 2;
  const InitialConfig init = adversarial_configuration(kN, kK, bias);
  const auto budget =
      static_cast<Interactions>(kMaxParallel * static_cast<double>(kN));
  return SweepRunner(spec)
      .run([&](const SweepTrial& ctx) {
        UsdEngine engine(init.opinion_counts, ctx.seed);
        engine.run_until_stable(budget);
        TrialResult r;
        r.stabilized = engine.stabilized();
        r.interactions = engine.interactions();
        r.parallel_time = engine.time();
        r.winner = engine.winner();
        return consensus_metrics(r);
      })
      .to_json();
}

TEST(SweepServiceTest, SubmitStreamsCellsThenDoneMatchingTheOfflineRunner) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const std::vector<std::string> lines =
      run_collect(service, submit_request());
  ASSERT_EQ(lines.size(), 2u);  // one cell + done
  const JsonValue cell = JsonValue::parse(lines[0]);
  EXPECT_EQ(cell.at("type").as_string(), "cell");
  EXPECT_EQ(cell.at("cell_index").as_int(), 0);
  EXPECT_FALSE(cell.at("cached").as_bool());
  EXPECT_EQ(cell.at("data").at("n").as_int(), kN);
  EXPECT_EQ(report_of(lines), offline_report(7, 2));
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.jobs_completed, 1u);
  EXPECT_EQ(c.cells_served, 1u);
  EXPECT_EQ(c.cells_from_cache, 0u);
  EXPECT_EQ(c.trials_executed, 2u);
}

TEST(SweepServiceTest, WarmResubmitServesEveryCellFromCacheByteIdentically) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const std::vector<std::string> cold =
      run_collect(service, submit_request());
  const std::uint64_t executed_after_cold =
      service.counters().trials_executed;
  const std::vector<std::string> warm =
      run_collect(service, submit_request());
  // Zero trials re-executed, every cell cached, identical bytes end to end.
  EXPECT_EQ(service.counters().trials_executed, executed_after_cold);
  EXPECT_EQ(report_of(warm), report_of(cold));
  const JsonValue done = JsonValue::parse(warm.back());
  EXPECT_EQ(done.at("cached_cells").as_int(), done.at("cells").as_int());
  EXPECT_EQ(done.at("trials_executed").as_int(), 0);
  const JsonValue warm_cell = JsonValue::parse(warm[0]);
  EXPECT_TRUE(warm_cell.at("cached").as_bool());
  // And the streamed cell bytes are the same as the cold run's.
  const JsonValue cold_cell = JsonValue::parse(cold[0]);
  EXPECT_EQ(warm_cell.at("data").members().size(),
            cold_cell.at("data").members().size());
  EXPECT_GE(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.counters().cells_from_cache, 1u);
}

TEST(SweepServiceTest, GridRequestsStreamEveryCellOnce) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const JsonValue request = JsonValue::parse(
      R"({"type": "submit", "n": [200, 300], "k": [2, 3], "trials": 1,)"
      R"( "seed": 3, "threads": 4})");
  const std::vector<std::string> lines = run_collect(service, request);
  ASSERT_EQ(lines.size(), 5u);  // 4 cells + done
  std::set<std::int64_t> indices;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const JsonValue cell = JsonValue::parse(lines[i]);
    indices.insert(cell.at("cell_index").as_int());
  }
  EXPECT_EQ(indices, (std::set<std::int64_t>{0, 1, 2, 3}));
  // n outer, k inner: cell 1 is (n=200, k=3).
  const JsonValue report = JsonValue::parse(report_of(lines));
  const JsonValue& cell1 = report.at("cells").items()[1];
  EXPECT_EQ(cell1.at("n").as_int(), 200);
  EXPECT_EQ(cell1.at("k").as_int(), 3);
}

TEST(SweepServiceTest, EngineOverrideMirrorsTheGenericFacade) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const JsonValue request = JsonValue::parse(
      R"({"type": "submit", "n": 300, "k": 2, "engine": "collapsed",)"
      R"( "trials": 2, "seed": 5, "threads": 2})");
  const std::vector<std::string> lines = run_collect(service, request);
  // Offline oracle: ppsim_run's --engine collapsed path.
  const Count bias = static_cast<Count>(bounds::whp_bias(kN));
  SweepSpec spec;
  spec.name = "ppsim_run";
  SweepCell cell;
  cell.n = kN;
  cell.k = kK;
  cell.bias = static_cast<double>(bias);
  cell.protocol = "usd";
  cell.engine = EngineKind::kCollapsed;
  spec.cells.push_back(cell);
  spec.trials = 2;
  spec.base_seed = 5;
  spec.threads = 2;
  const UndecidedStateDynamics usd(kK);
  const InitialConfig init = adversarial_configuration(kN, kK, bias);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  const auto budget =
      static_cast<Interactions>(kMaxParallel * static_cast<double>(kN));
  const std::string offline =
      SweepRunner(spec)
          .run([&](const SweepTrial& ctx) {
            Engine engine(ctx.cell.engine, usd, initial, ctx.seed,
                          {.round_divisor = ctx.cell.round_divisor});
            return consensus_metrics(run_engine_trial(engine, budget));
          })
          .to_json();
  EXPECT_EQ(report_of(lines), offline);
}

TEST(SweepServiceTest, ScenarioFieldsRoundTripMatchingTheOfflineRunner) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const JsonValue request = JsonValue::parse(
      R"({"type": "submit", "n": 300, "k": 2, "trials": 2, "seed": 7,)"
      R"( "threads": 2, "adversary": 0.25, "churn": 0.001})");
  const std::vector<std::string> lines = run_collect(service, request);
  ASSERT_EQ(lines.size(), 2u);
  // The knobs round-trip into the streamed cell's params block.
  const JsonValue cell = JsonValue::parse(lines[0]);
  const JsonValue& params = cell.at("data").at("params");
  EXPECT_EQ(params.at("adversary_strength").as_number(), 0.25);
  EXPECT_EQ(params.at("churn_rate").as_number(), 0.001);
  // Offline oracle: ppsim_run's --adversary/--churn scenario body, rebuilt
  // here independently of the service's mirroring code.
  const Count bias = static_cast<Count>(bounds::whp_bias(kN));
  SweepSpec spec;
  spec.name = "ppsim_run";
  SweepCell oracle_cell;
  oracle_cell.n = kN;
  oracle_cell.k = kK;
  oracle_cell.bias = static_cast<double>(bias);
  oracle_cell.protocol = "usd";
  oracle_cell.engine = EngineKind::kSequential;
  ScenarioSpec scenario;
  scenario.adversary_strength = 0.25;
  scenario.churn_rate = 0.001;
  oracle_cell.params = scenario.params();
  spec.cells.push_back(oracle_cell);
  spec.trials = 2;
  spec.base_seed = 7;
  spec.threads = 2;
  const InitialConfig init = adversarial_configuration(kN, kK, bias);
  const auto budget =
      static_cast<Interactions>(kMaxParallel * static_cast<double>(kN));
  const std::string offline =
      SweepRunner(spec)
          .run([&](const SweepTrial& ctx) {
            UsdEngine engine(init.opinion_counts, ctx.seed);
            AdversarialScheduler adversary(scenario.adversary_strength,
                                           ctx.rng());
            ChurnModel churn(scenario.churn_rate, scenario.churn_rate,
                             ChurnModel::JoinPolicy::kUndecided, ctx.rng());
            while (!engine.stabilized() && engine.interactions() < budget) {
              adversary.step(engine);
              churn.step(engine);
            }
            TrialResult r;
            r.stabilized = engine.stabilized();
            r.interactions = engine.interactions();
            r.parallel_time = engine.time();
            r.winner = engine.winner();
            SweepMetrics m = consensus_metrics(r);
            m.emplace_back("interventions",
                           static_cast<double>(adversary.interventions()));
            m.emplace_back("joins", static_cast<double>(churn.joins()));
            m.emplace_back("leaves", static_cast<double>(churn.leaves()));
            m.emplace_back("final_population",
                           static_cast<double>(engine.population()));
            return m;
          })
          .to_json();
  EXPECT_EQ(report_of(lines), offline);
}

TEST(SweepServiceTest, ScenarioParamsKeyTheCacheDistinctlyFromPlainSubmits) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const JsonValue scenario_request = JsonValue::parse(
      R"({"type": "submit", "n": 300, "k": 2, "trials": 2, "seed": 7,)"
      R"( "threads": 2, "adversary": 0.25, "churn": 0.001})");
  run_collect(service, scenario_request);
  const std::uint64_t after_scenario = service.counters().trials_executed;
  EXPECT_EQ(after_scenario, 2u);
  // A plain submit of the otherwise-identical spec must NOT be served from
  // the scenario run's cache entry: the knobs live in the cell params, so
  // the canonical cell keys differ and the plain cells compute cold.
  const std::vector<std::string> plain =
      run_collect(service, submit_request());
  EXPECT_EQ(service.counters().trials_executed, after_scenario + 2);
  EXPECT_EQ(service.counters().cells_from_cache, 0u);
  EXPECT_EQ(report_of(plain), offline_report(7, 2));
  // Re-submitting the scenario spec IS a cache hit — same knobs, same key.
  const std::vector<std::string> warm =
      run_collect(service, scenario_request);
  EXPECT_EQ(service.counters().trials_executed, after_scenario + 2);
  EXPECT_EQ(service.counters().cells_from_cache, 1u);
  EXPECT_TRUE(JsonValue::parse(warm[0]).at("cached").as_bool());
}

TEST(SweepServiceTest, InvalidRequestsAreRejectedBeforeAnyWork) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const auto reject = [&](const std::string& request) {
    EXPECT_THROW(
        service.run_job(JsonValue::parse(request),
                        [](const std::string&) { return true; }),
        CheckFailure)
        << request;
  };
  reject(R"({"type": "submit", "protocol": "three-majority"})");
  reject(R"({"type": "submit", "trials": 0})");
  reject(R"({"type": "submit", "n": 1})");
  reject(R"({"type": "submit", "k": 0})");
  reject(R"({"type": "submit", "n": []})");
  reject(R"({"type": "submit", "engine": "warp"})");
  reject(R"({"type": "submit", "max_parallel": 0})");
  reject(R"({"type": "submit", "bias": 1.5})");  // non-integral bias
  reject(R"({"type": "submit", "adversary": 1.5})");
  reject(R"({"type": "submit", "churn": -0.1})");
  // Scenario knobs run the specialized sequential body only.
  reject(R"({"type": "submit", "adversary": 0.3, "engine": "collapsed"})");
  EXPECT_EQ(service.counters().jobs_completed, 0u);
  EXPECT_EQ(service.counters().trials_executed, 0u);
}

TEST(SweepServiceTest, KernelFieldAcceptsScalarOrAutoAndRejectsOthers) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const auto with_kernel = [](const std::string& kernel) {
    return JsonValue::parse(
        R"({"type": "submit", "n": 300, "k": 2, "engine": "collapsed",)"
        R"( "trials": 2, "seed": 9, "threads": 2, "kernel": ")" +
        kernel + R"("})");
  };
  const JsonValue absent = JsonValue::parse(
      R"({"type": "submit", "n": 300, "k": 2, "engine": "collapsed",)"
      R"( "trials": 2, "seed": 9, "threads": 2})");
  const std::string cold = report_of(run_collect(service, absent));
  EXPECT_NE(cold.find("\"kernel\": \"scalar\""), std::string::npos);
  // "scalar" and "auto" are the same request as no field at all: the same
  // report, served from the cell the first submit cached.
  for (const std::string kernel : {"scalar", "auto"}) {
    const std::vector<std::string> lines =
        run_collect(service, with_kernel(kernel));
    EXPECT_EQ(report_of(lines), cold) << kernel;
    EXPECT_TRUE(JsonValue::parse(lines[0]).at("cached").as_bool()) << kernel;
  }
  EXPECT_EQ(service.counters().trials_executed, 2u);
  // Any other kernel, avx2 included, is a client error before any work.
  for (const std::string kernel : {"avx2", "sse9", ""}) {
    try {
      service.run_job(with_kernel(kernel),
                      [](const std::string&) { return true; });
      ADD_FAILURE() << "kernel '" << kernel << "' was accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("'kernel'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(service.counters().jobs_completed, 3u);
  EXPECT_EQ(service.counters().trials_executed, 2u);
  // The service keeps serving after the rejections.
  EXPECT_EQ(report_of(run_collect(service, absent)), cold);
}

TEST(SweepServiceTest, AVanishedClientCancelsItsJob) {
  SweepService service({.cache_memory = 16, .cache_dir = ""});
  const JsonValue request = JsonValue::parse(
      R"({"type": "submit", "n": [200, 240, 280, 320], "k": 2,)"
      R"( "trials": 4, "seed": 11, "threads": 2})");
  std::atomic<int> delivered{0};
  service.run_job(request, [&](const std::string&) {
    // First line lands, then the "client" is gone.
    return ++delivered == 1;
  });
  EXPECT_EQ(service.counters().jobs_completed, 0u);
  EXPECT_EQ(service.counters().jobs_failed, 1u);
}

// ---------------------------------------------------------------- socket --

std::string socket_path(const std::string& stem) {
  return testing::TempDir() + "/" + stem + ".sock";
}

/// Connects with retries (the server thread may still be binding).
LineChannel connect_with_retry(const std::string& path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return LineChannel(connect_to(path));
    } catch (const CheckFailure&) {
      if (attempt > 200) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

/// Sends one request line and reads until a done/error line (inclusive).
std::vector<std::string> roundtrip(LineChannel& channel,
                                   const std::string& request) {
  EXPECT_TRUE(channel.write_line(request));
  std::vector<std::string> lines;
  while (true) {
    std::optional<std::string> line = channel.read_line();
    if (!line.has_value()) break;
    lines.push_back(*line);
    const JsonValue parsed = JsonValue::parse(*line);
    const std::string type = parsed.at("type").as_string();
    if (type == "done" || type == "error" || type == "stats") break;
  }
  return lines;
}

TEST(SweepServerTest, SoakConcurrentClientsWithOverlappingSpecs) {
  ServerConfig config;
  config.socket_path = socket_path("ppsim_soak");
  config.service = {.cache_memory = 64, .cache_dir = ""};
  SweepServer server(config);
  std::thread serving([&] { server.run(); });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 2;
  const std::uint64_t hits_before = server.service().cache_stats().hits;
  std::vector<std::string> reports(kClients * kRequestsPerClient);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineChannel channel = connect_with_retry(config.socket_path);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        // Every client submits the SAME spec: maximal cache overlap.
        const std::vector<std::string> lines = roundtrip(
            channel,
            R"({"type": "submit", "n": [200, 300], "k": 2, "trials": 2,)"
            R"( "seed": 9, "threads": 2})");
        ASSERT_FALSE(lines.empty());
        const JsonValue done = JsonValue::parse(lines.back());
        ASSERT_EQ(done.at("type").as_string(), "done");
        reports[static_cast<std::size_t>(c * kRequestsPerClient + r)] =
            done.at("report").as_string();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  serving.join();

  // Every answer to the shared spec is the same bytes, no matter which
  // client asked, when, or whether the cells came from cache.
  for (const std::string& report : reports) {
    EXPECT_EQ(report, reports[0]);
    EXPECT_FALSE(report.empty());
  }
  // The overlap was actually served from cache, and the hit counter only
  // ever grows: 6 submissions x 2 cells, at most 2 computed cold.
  const auto stats = server.service().cache_stats();
  EXPECT_GE(stats.hits, hits_before + 10);
  EXPECT_EQ(server.service().counters().jobs_completed,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

TEST(SweepServerTest, FinishedConnectionThreadsAreReaped) {
  // One connection per request, as ppsim_client opens them. Every thread
  // left unjoined holds its stack and a mapping, so a long-lived daemon
  // must retain threads only for its open connections.
  ServerConfig config;
  config.socket_path = socket_path("ppsim_reap");
  config.service = {.cache_memory = 4, .cache_dir = ""};
  SweepServer server(config);
  std::thread serving([&] { server.run(); });
  constexpr int kConnections = 1000;
  std::size_t most_retained = 0;
  int answered = 0;
  for (int c = 0; c < kConnections; ++c) {
    LineChannel channel = connect_with_retry(config.socket_path);
    if (roundtrip(channel, R"({"type": "stats"})").size() == 1) ++answered;
    most_retained = std::max(most_retained, server.retained_connections());
  }
  server.stop();
  serving.join();
  EXPECT_EQ(answered, kConnections);
  // Only the open connection and a few closed ones not yet reaped remain.
  EXPECT_LE(most_retained, 32u);
  EXPECT_EQ(server.retained_connections(), 0u);
}

TEST(SweepServerTest, StartStopStress) {
  // stop() from another thread while run() is still binding, while it is
  // blocked in accept(), and after serving a connection. stop() only wakes
  // accept(); run() closes the listening fd after its loop, so nothing the
  // accept loop reads is written concurrently (the TSan lane repeats this).
  for (int round = 0; round < 20; ++round) {
    ServerConfig config;
    config.socket_path = socket_path("ppsim_start_stop");
    config.service = {.cache_memory = 4, .cache_dir = ""};
    SweepServer server(config);
    std::thread serving([&] { server.run(); });
    if (round % 2 == 1) {
      LineChannel channel = connect_with_retry(config.socket_path);
      EXPECT_EQ(roundtrip(channel, R"({"type": "stats"})").size(), 1u);
    }
    server.stop();
    serving.join();
    EXPECT_EQ(server.retained_connections(), 0u);
  }
}

TEST(SweepServerTest, MalformedLinesAnswerErrorsAndKeepTheConnection) {
  ServerConfig config;
  config.socket_path = socket_path("ppsim_bad");
  config.service = {.cache_memory = 4, .cache_dir = ""};
  SweepServer server(config);
  std::thread serving([&] { server.run(); });
  {
    LineChannel channel = connect_with_retry(config.socket_path);
    for (const std::string& bad :
         {std::string("this is not json"), std::string(R"({"no":"type"})"),
          std::string(R"({"type":"warp"})"),
          std::string(R"({"type":"submit","kernel":"avx2"})")}) {
      const std::vector<std::string> lines = roundtrip(channel, bad);
      ASSERT_EQ(lines.size(), 1u) << bad;
      EXPECT_EQ(JsonValue::parse(lines[0]).at("type").as_string(), "error");
    }
    // The connection still serves real requests afterwards.
    const std::vector<std::string> ok =
        roundtrip(channel, R"({"type": "stats"})");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(JsonValue::parse(ok[0]).at("type").as_string(), "stats");
  }
  server.stop();
  serving.join();
}

}  // namespace
}  // namespace ppsim::net
