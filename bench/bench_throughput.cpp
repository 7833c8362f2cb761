// Engine throughput shoot-out: sequential vs. round-based simulation of USD
// on the paper's Figure-1 configuration, at paper scale by default (n = 10⁷,
// k = 3). Four engines run the same workload to stabilization:
//
//   * sequential  — generic table-driven Simulator, one interaction/step;
//   * specialized — UsdEngine, the hand-tuned sequential USD engine;
//   * batched     — CollapsedSimulator, fixed n/divisor rounds, O(q²) each;
//   * collapsed   — CollapsedSimulator, counts-space adaptive-τ rounds.
//
// Runs on the SweepRunner: one cell per engine, --trials trials per cell,
// fanned out over --threads workers with deterministic per-trial RNG
// streams (the per-trial interaction counts are thread-count invariant;
// only wall clock changes). Reports wall-clock seconds, attempted vs
// *effective* interactions (attempted minus the batched engine's clamped
// τ-leaping overdraw — previously the clamped share was double-counted),
// interactions/second and the batched-vs-sequential speedup; the same
// numbers land in the unified sweep JSON (--json, default
// BENCH_throughput.json) so CI can track the perf trajectory.
//
// A second mode, --mixed-grid, benches the sweep *scheduler* instead of the
// engines: a deliberately imbalanced grid (--small-cells sequential cells at
// n = --small-n, then one collapsed cell at n = --large-n, listed last) runs
// twice — once on the legacy static pool, once on the work-stealing
// scheduler — asserts the two JSON reports are byte-identical, and records
// both wall clocks plus the speedup in the JSON. The static pool claims
// (cell, trial) items in submission order, so the expensive trailing cell
// convoys the tail; work stealing interleaves submission by trial index
// across cells and the large cell starts on round one.
//
// Flags: --n, --k, --trials, --seed, --max-parallel, --round-divisor,
//        --tau-epsilon, --threads (0 = hardware), --json (empty disables
//        the file), --mixed-grid, --small-n, --large-n, --small-cells.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/cli.hpp"
#include "ppsim/util/table.hpp"

namespace {

using namespace ppsim;

// --mixed-grid: same spec, two schedulers. Proves (a) the scheduler swap
// does not change the science — the reports must match byte for byte — and
// (b) the work-stealing scheduler beats the static pool's convoyed tail on
// an imbalanced grid (on multi-core hosts; a 1-core host measures ~1.0x).
int run_mixed_grid(const SweepCliOptions& opts, Count small_n, Count large_n,
                   std::size_t small_cells, std::size_t k, double max_parallel,
                   double tau_epsilon) {
  PPSIM_CHECK(!opts.stopping.adaptive,
              "--mixed-grid compares schedulers at a fixed --trials count "
              "(the static pool cannot run adaptive stopping)");
  benchutil::banner("throughput --mixed-grid",
                    "static pool vs work-stealing scheduler on an imbalanced "
                    "grid: small sequential cells with one large collapsed "
                    "cell listed last");
  benchutil::param("small n", small_n);
  benchutil::param("large n", large_n);
  benchutil::param("small cells", static_cast<std::int64_t>(small_cells));
  benchutil::param("trials", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  const InitialConfig small_init = figure1_configuration(small_n, k);
  const InitialConfig large_init = figure1_configuration(large_n, k);
  const UndecidedStateDynamics usd(k);
  const Configuration small_initial =
      UndecidedStateDynamics::initial_configuration(small_init.opinion_counts);
  const Configuration large_initial =
      UndecidedStateDynamics::initial_configuration(large_init.opinion_counts);

  SweepSpec spec;
  spec.name = "throughput_mixed_grid";
  opts.configure(spec);
  for (std::size_t i = 0; i < small_cells; ++i) {
    SweepCell cell;
    cell.n = small_n;
    cell.k = k;
    cell.bias = static_cast<double>(small_init.bias);
    cell.engine = EngineKind::kSequential;
    cell.tau_epsilon = tau_epsilon;
    cell.name = "small-" + std::to_string(i);
    spec.cells.push_back(cell);
  }
  {
    SweepCell cell;
    cell.n = large_n;
    cell.k = k;
    cell.bias = static_cast<double>(large_init.bias);
    cell.engine = EngineKind::kCollapsed;
    cell.tau_epsilon = tau_epsilon;
    cell.name = "large";
    spec.cells.push_back(cell);
  }

  // Metrics must stay RNG-derived only (no per-trial wall clock): the two
  // scheduler runs are diffed byte-for-byte below, and timing noise in the
  // report would make the identity check vacuous.
  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const Configuration& initial =
        ctx.cell.engine == EngineKind::kCollapsed ? large_initial : small_initial;
    const auto budget =
        static_cast<Interactions>(max_parallel * static_cast<double>(ctx.cell.n));
    Engine engine = ctx.make_engine(usd, initial);
    return consensus_metrics(run_engine_trial(engine, budget));
  };

  SweepSpec static_spec = spec;
  static_spec.scheduler = SweepSchedulerKind::kStaticPool;
  const SweepResult static_result = SweepRunner(static_spec).run(trial);
  const SweepResult ws_result = SweepRunner(spec).run(trial);

  const std::string static_json = static_result.to_json();
  const std::string ws_json = ws_result.to_json();
  const bool identical = static_json == ws_json;

  Table table({"scheduler", "wall_seconds", "steals", "stolen_tasks"});
  table.row()
      .cell("static_pool")
      .cell(static_result.wall_seconds, 4)
      .cell(0.0, 0)
      .cell(0.0, 0)
      .done();
  table.row()
      .cell("work_stealing")
      .cell(ws_result.wall_seconds, 4)
      .cell(static_cast<double>(ws_result.scheduler_stats.steals), 0)
      .cell(static_cast<double>(ws_result.scheduler_stats.stolen_tasks), 0)
      .done();
  benchutil::tsv_block("mixed_grid", table);
  table.write_pretty(std::cout);

  const double speedup = ws_result.wall_seconds > 0.0
                             ? static_result.wall_seconds / ws_result.wall_seconds
                             : 0.0;
  std::cout << "\nwork-stealing vs static pool (wall-clock): "
            << format_double(speedup, 2) << "x  (threads "
            << ws_result.threads << ")\n"
            << "reports byte-identical: " << (identical ? "yes" : "NO") << "\n";

  if (!opts.json.empty()) {
    JsonObject report;
    report.field("bench", "throughput_mixed_grid")
        .field("small_n", static_cast<std::int64_t>(small_n))
        .field("large_n", static_cast<std::int64_t>(large_n))
        .field("small_cells", static_cast<std::int64_t>(small_cells))
        .field("trials", static_cast<std::int64_t>(opts.trials))
        .field("threads", static_cast<std::int64_t>(ws_result.threads))
        .field("static_pool_wall_seconds", static_result.wall_seconds)
        .field("work_stealing_wall_seconds", ws_result.wall_seconds)
        .field("work_stealing_speedup", speedup)
        .field("steals", static_cast<std::int64_t>(ws_result.scheduler_stats.steals))
        .field("stolen_tasks",
               static_cast<std::int64_t>(ws_result.scheduler_stats.stolen_tasks))
        .field("reports_identical", identical)
        .field_json("sweep", ws_json);
    report.write_file(opts.json);
    std::cout << "json report written to " << opts.json << "\n";
  }

  PPSIM_CHECK(identical,
              "scheduler changed the science: static-pool and work-stealing "
              "sweep reports differ");
  return 0;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const Count n = cli.get_int("n", 10'000'000);
  const auto k = static_cast<std::size_t>(cli.get_int("k", 3));
  const double max_parallel = cli.get_double("max-parallel", 1000.0);
  const Interactions round_divisor = cli.get_int("round-divisor", 16);
  const double tau_epsilon = cli.get_double("tau-epsilon", 0.05);
  const bool mixed_grid = cli.get_bool("mixed-grid", false);
  const Count small_n = cli.get_int("small-n", 100'000);
  const Count large_n = cli.get_int("large-n", 1'000'000'000);
  const auto small_cells = static_cast<std::size_t>(cli.get_int("small-cells", 12));
  const SweepCliOptions opts =
      read_sweep_flags(cli, 1, 42, "BENCH_throughput.json");
  cli.validate_no_unknown_flags();
  opts.scenario.require_only(false, false, false, "bench_throughput");

  if (mixed_grid) {
    return run_mixed_grid(opts, small_n, large_n, small_cells, k, max_parallel,
                          tau_epsilon);
  }

  benchutil::banner("throughput",
                    "wall-clock comparison of the USD engines on one workload: "
                    "sequential (generic + specialized) vs batched vs collapsed");
  benchutil::param("n", n);
  benchutil::param("k", static_cast<std::int64_t>(k));
  benchutil::param("trials", static_cast<std::int64_t>(opts.trials));
  benchutil::param("seed", static_cast<std::int64_t>(opts.seed));
  benchutil::param("max parallel time", max_parallel);
  benchutil::param("batched round divisor", round_divisor);
  benchutil::param("threads", static_cast<std::int64_t>(opts.threads));

  const InitialConfig init = figure1_configuration(n, k);
  const auto budget = static_cast<Interactions>(max_parallel * static_cast<double>(n));
  const UndecidedStateDynamics usd(k);
  const Configuration initial =
      UndecidedStateDynamics::initial_configuration(init.opinion_counts);

  SweepSpec spec;
  spec.name = "throughput";
  opts.configure(spec);
  for (const char* variant : {"sequential", "specialized", "batched", "collapsed"}) {
    SweepCell cell;
    cell.n = n;
    cell.k = k;
    cell.bias = static_cast<double>(init.bias);
    cell.protocol = variant;
    cell.engine = EngineKind::kSequential;
    if (std::string(variant) == "batched") cell.engine = EngineKind::kBatched;
    if (std::string(variant) == "collapsed") cell.engine = EngineKind::kCollapsed;
    cell.round_divisor = round_divisor;
    cell.tau_epsilon = tau_epsilon;
    cell.name = variant;
    spec.cells.push_back(cell);
  }

  auto trial = [&](const SweepTrial& ctx) -> SweepMetrics {
    const auto start = std::chrono::steady_clock::now();
    TrialResult r;
    if (ctx.cell.protocol == "specialized") {
      UsdEngine engine(init.opinion_counts, ctx.seed);
      r.stabilized = engine.run_until_stable(budget);
      r.interactions = engine.interactions();
      r.parallel_time = engine.time();
      r.winner = engine.winner();
    } else {
      Engine engine = ctx.make_engine(usd, initial);
      r = run_engine_trial(engine, budget);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    SweepMetrics m = consensus_metrics(r);
    m.emplace_back("wall_seconds", elapsed.count());
    return m;
  };

  const SweepResult result = SweepRunner(spec).run(trial);

  Table table({"engine", "wall_seconds", "attempted", "effective", "clamped",
               "attempted_per_sec", "effective_per_sec", "stabilized"});
  for (const SweepCellResult& cr : result.cells) {
    const double wall = cr.sum("wall_seconds");
    const double attempted = cr.sum("interactions");
    const double effective = cr.sum("effective_interactions");
    table.row()
        .cell(cr.cell.label())
        .cell(wall, 4)
        .cell(attempted, 0)
        .cell(effective, 0)
        .cell(cr.sum("clamped"), 0)
        .cell(wall > 0.0 ? attempted / wall : 0.0, 0)
        .cell(wall > 0.0 ? effective / wall : 0.0, 0)
        .cell(cr.rate("stabilized"), 2)
        .done();
  }
  benchutil::tsv_block("throughput", table);
  table.write_pretty(std::cout);

  const double wall_sequential = result.cells[0].sum("wall_seconds");
  const double wall_specialized = result.cells[1].sum("wall_seconds");
  const double wall_batched = result.cells[2].sum("wall_seconds");
  const double wall_collapsed = result.cells[3].sum("wall_seconds");
  auto speedup = [](double base, double fast) {
    return fast > 0.0 ? base / fast : 0.0;
  };
  std::cout << "\nbatched vs sequential    (wall-clock): "
            << format_double(speedup(wall_sequential, wall_batched), 1) << "x\n"
            << "batched vs specialized   (wall-clock): "
            << format_double(speedup(wall_specialized, wall_batched), 1) << "x\n"
            << "collapsed vs sequential  (wall-clock): "
            << format_double(speedup(wall_sequential, wall_collapsed), 1) << "x\n"
            << "collapsed vs batched     (wall-clock): "
            << format_double(speedup(wall_batched, wall_collapsed), 1) << "x\n";

  benchutil::finish_sweep(result, opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
