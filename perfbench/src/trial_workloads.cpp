// The three trial-running workloads: fig1_seq, k32_collapsed and sweep_grid.
//
// Each runs its trials through SweepRunner with a trial function of the
// benchmark's own, which times every trial and checks its outcome. A
// traced run first repeats the workload's work untraced, then traced, and
// requires the two sweep reports to be byte-identical: the traced trial
// drives the collapsed engine by hand (stage_round -> kernel().advance ->
// commit_round) instead of calling run_until_stable, so the comparison is
// what shows the hand-driven loop is faithful.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/hitting_times.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/io/archive_run.hpp"
#include "ppsim/io/trajectory.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"

namespace perfbench {

namespace {

using namespace ppsim;

/// Interaction budget of every trial: 10^5 parallel time, as ppsim_run.
Interactions budget_for(Count n) { return sat_mul(100000, n); }

/// What the benchmark records about one trial. Written only by the task
/// running the trial, read after the job ends.
struct TrialSlot {
  double start = 0.0;
  double end = 0.0;
  int worker = -1;
  bool ok = false;
  std::string failure;
  std::uint64_t engine_seed = 0;
  Interactions interactions = 0;
  Interactions usd_interactions = 0;    ///< UsdEngine trials
  Interactions table_interactions = 0;  ///< Engine(kSequential) trials
  std::uint64_t rounds = 0;             ///< traced collapsed trials only
  std::uint64_t local_rounds = 0;
  double tau_sum = 0.0;
  Interactions clamped = 0;
};

/// Inputs of one sweep cell, built during setup and shared read-only by
/// the trials.
struct CellInputs {
  InitialConfig init;
  std::unique_ptr<UndecidedStateDynamics> protocol;
  Configuration initial;
};

CellInputs make_inputs(InitialConfig init) {
  auto protocol = std::make_unique<UndecidedStateDynamics>(init.opinion_counts.size());
  Configuration initial = UndecidedStateDynamics::initial_configuration(init.opinion_counts);
  return {std::move(init), std::move(protocol), std::move(initial)};
}

/// One trial outcome checked: stabilized within budget, one winner, and
/// the population conserved.
SweepMetrics checked(const TrialResult& r, Count population, Count n,
                     TrialSlot& slot) {
  slot.interactions = r.interactions;
  slot.clamped = r.clamped;
  if (!r.stabilized) {
    slot.failure = "trial did not stabilize within budget";
  } else if (!r.winner.has_value()) {
    slot.failure = "trial stabilized without a single winner";
  } else if (population != n) {
    slot.failure = "population not conserved: " + std::to_string(population) +
                   " != " + std::to_string(n);
  } else {
    slot.ok = true;
  }
  return consensus_metrics(r);
}

SweepMetrics usd_engine_trial(const CellInputs& in, const SweepTrial& ctx,
                              TrialSlot& slot) {
  const Count n = in.init.population();
  UsdEngine engine(in.init.opinion_counts, ctx.seed);
  {
    const Span span("engine.usd.run_until_stable");
    engine.run_until_stable(budget_for(n));
  }
  Count population = engine.undecided();
  for (Opinion i = 0; i < engine.num_opinions(); ++i) {
    population += engine.opinion_count(i);
  }
  TrialResult r;
  r.stabilized = engine.stabilized();
  r.interactions = engine.interactions();
  r.parallel_time = engine.time();
  r.winner = engine.winner();
  slot.usd_interactions = r.interactions;
  return checked(r, population, n, slot);
}

SweepMetrics table_engine_trial(const CellInputs& in, const SweepTrial& ctx,
                                TrialSlot& slot) {
  const Count n = in.init.population();
  Engine engine(EngineKind::kSequential, *in.protocol, in.initial, ctx.seed);
  RunOutcome out;
  {
    const Span span("engine.table.run_until_stable");
    out = engine.run_until_stable(budget_for(n));
  }
  TrialResult r;
  r.stabilized = out.stabilized;
  r.interactions = out.interactions;
  r.clamped = out.clamped;
  r.parallel_time = engine.parallel_time();
  r.winner = out.consensus;
  slot.table_interactions = r.interactions;
  return checked(r, engine.configuration().population(), n, slot);
}

/// Runs a collapsed engine to stabilization. Untraced this is the library's
/// run_until_stable; traced it is the same loop driven through the staging
/// API with a span around each call, plus round counters.
RunOutcome run_collapsed(CollapsedSimulator& sim, Interactions budget,
                         TrialSlot& slot) {
  if (!tracing()) return sim.run_until_stable(budget);
  const bool scalar = sim.kernel().kind() == kernels::KernelKind::kScalar;
  const char* advance = scalar ? "kernels.scalar.advance" : "kernels.avx2.advance";
  const char* commit = scalar ? "kernels.scalar.commit" : "kernels.avx2.commit";
  while (sim.interactions() < budget) {
    {
      const Tally tally("collapsed.is_stable");
      if (sim.is_stable()) break;
    }
    kernels::RoundTask task;
    bool staged = false;
    {
      const Tally tally("collapsed.stage_round");
      staged = sim.stage_round(budget - sim.interactions(), task);
    }
    ++slot.rounds;
    slot.tau_sum += static_cast<double>(sim.last_round_size());
    if (!staged) {
      ++slot.local_rounds;
      continue;
    }
    {
      const Tally tally(advance);
      sim.kernel().advance(task);
    }
    {
      const Tally tally(commit);
      sim.commit_round(task);
    }
  }
  RunOutcome out;
  out.stabilized = sim.is_stable();
  out.interactions = sim.interactions();
  out.clamped = sim.clamped_interactions();
  out.consensus = sim.consensus_output();
  return out;
}

SweepMetrics collapsed_trial(const CellInputs& in, const SweepTrial& ctx,
                             TrialSlot& slot) {
  const Count n = in.init.population();
  CollapsedSimulator sim(*in.protocol, in.initial, ctx.seed,
                         {.tau_epsilon = ctx.cell.tau_epsilon,
                          .kernel = ctx.cell.kernel.value_or(kernels::KernelKind::kScalar)});
  slot.engine_seed = ctx.seed;
  const RunOutcome out = run_collapsed(sim, budget_for(n), slot);
  TrialResult r;
  r.stabilized = out.stabilized;
  r.interactions = out.interactions;
  r.clamped = out.clamped;
  r.parallel_time = sim.parallel_time();
  r.winner = out.consensus;
  return checked(r, sim.configuration().population(), n, slot);
}

/// The engine paths the trials take.
enum class Path { kUsdEngine, kTableEngine, kCollapsed };

/// Set-up's warm-up: builds the engine a cell's trials use and steps it
/// for `interactions`, so lazy initialisation (transition tables, kernel
/// dispatch, first-touch memory) is paid before anything is timed.
void warm_up(const CellInputs& in, Path path, kernels::KernelKind kernel,
             Interactions interactions) {
  switch (path) {
    case Path::kUsdEngine: {
      UsdEngine usd(in.init.opinion_counts, 1);
      usd.run_until_stable(interactions);
      return;
    }
    case Path::kTableEngine: {
      Engine table(EngineKind::kSequential, *in.protocol, in.initial, 1);
      table.run_until_stable(interactions);
      return;
    }
    case Path::kCollapsed: {
      CollapsedSimulator sim(*in.protocol, in.initial, 1, {.kernel = kernel});
      sim.run_until_stable(interactions);
      return;
    }
  }
}

using TrialBody = std::function<SweepMetrics(const SweepTrial&, TrialSlot&)>;

/// One sweep job as the benchmark saw it.
struct Pass {
  SweepResult result;
  std::string report;  ///< SweepResult::to_json()
  double start = 0.0;
  double end = 0.0;
  double render_s = 0.0;
  std::vector<TrialSlot> slots;  ///< indexed by stream index
};

Pass run_pass(const SweepSpec& spec, const TrialBody& body) {
  Pass p;
  p.slots.resize(spec.cells.size() * spec.trials);
  const SweepRunner runner(spec);
  {
    const Span job("sweep.run");
    const SweepTrialFn fn = [&](const SweepTrial& ctx) {
      TrialSlot& slot = p.slots[ctx.stream_index];
      const Span span("sweep.trial", job.id());
      slot.start = now_s();
      SweepMetrics m = body(ctx, slot);
      slot.end = now_s();
      slot.worker = thread_index();
      return m;
    };
    p.start = now_s();
    p.result = runner.run(fn);
    p.end = now_s();
  }
  {
    const Span span("sweep.to_json");
    const double t0 = now_s();
    p.report = p.result.to_json();
    p.render_s = now_s() - t0;
  }
  return p;
}

/// Totals over every pass of one phase (untraced or traced).
struct Totals {
  std::vector<Pass> passes;
  double sweep_s = 0.0;  ///< summed sweep job wall time
  double extra_s = 0.0;  ///< timed work outside the sweeps (recording)
  std::size_t trials = 0;
  double effective = 0.0;
  std::vector<double> trial_s;
  std::vector<double> job_s;
  double busy_s = 0.0, idle_s = 0.0, tail_s = 0.0, render_s = 0.0;
  double report_bytes = 0.0;
  double tasks = 0.0, steals = 0.0, stolen = 0.0;
  double usd_interactions = 0.0, table_interactions = 0.0;
  double rounds = 0.0, local_rounds = 0.0, tau_sum = 0.0, clamped = 0.0;
  double majority_wins = 0.0, parallel_time_sum = 0.0;

  double wall_s() const { return sweep_s + extra_s; }

  void add(Pass pass, Report& report) {
    const SweepResult& res = pass.result;
    const std::size_t cap = res.trials;
    std::map<int, double> last_end;  // worker -> its last trial end
    double pass_busy = 0.0;
    for (const SweepCellResult& cr : res.cells) {
      for (std::size_t t = 0; t < cr.trials_run; ++t) {
        const TrialSlot& s = pass.slots[cr.cell_index * cap + t];
        report.op(s.ok, cr.cell.label() + " trial " + std::to_string(t) +
                            ": " + s.failure);
        trial_s.push_back(s.end - s.start);
        pass_busy += s.end - s.start;
        last_end[s.worker] = std::max(last_end[s.worker], s.end);
        usd_interactions += static_cast<double>(s.usd_interactions);
        table_interactions += static_cast<double>(s.table_interactions);
        rounds += static_cast<double>(s.rounds);
        local_rounds += static_cast<double>(s.local_rounds);
        tau_sum += s.tau_sum;
        clamped += static_cast<double>(s.clamped);
      }
      trials += cr.trials_run;
      effective += cr.sum("effective_interactions");
      majority_wins += cr.sum("majority_win");
      parallel_time_sum += cr.sum("parallel_time");
    }
    const double wall = pass.end - pass.start;
    double first_done = pass.end;
    for (const auto& [worker, end] : last_end) first_done = std::min(first_done, end);
    sweep_s += wall;
    job_s.push_back(wall);
    busy_s += pass_busy;
    idle_s += res.threads * wall - pass_busy;
    tail_s += pass.end - first_done;
    render_s += pass.render_s;
    report_bytes += static_cast<double>(pass.report.size());
    tasks += static_cast<double>(res.scheduler_stats.executed);
    steals += static_cast<double>(res.scheduler_stats.steals);
    stolen += static_cast<double>(res.scheduler_stats.stolen_tasks);
    passes.push_back(std::move(pass));
  }
};

/// A trial workload: its sweep jobs, trial body, and optional timed work
/// after the sweeps (k32_collapsed's recorded trial).
struct TrialWorkload {
  std::vector<SweepSpec> specs;
  /// The operation op_s times: a whole sweep job when true, else a trial.
  bool op_is_job = false;
  TrialBody body;
  std::function<void(Totals&, Report&)> after;
};

Totals run_phase(const TrialWorkload& w, Report& report) {
  Totals totals;
  for (const SweepSpec& spec : w.specs) totals.add(run_pass(spec, w.body), report);
  if (w.after) w.after(totals, report);
  return totals;
}

void report_end_to_end(const Totals& t, bool op_is_job, double setup_s,
                       Report& report) {
  report.set("setup_s", setup_s);
  report.set("wall_s", t.wall_s());
  report.set("trials_per_s", static_cast<double>(t.trials) / t.sweep_s);
  report.set("interactions_per_s", t.effective / t.sweep_s);
  report.set("op_s.p50", median(op_is_job ? t.job_s : t.trial_s));
  report.note("threads", t.passes.front().result.threads, "count");
  report.note("job_s.p50", median(t.job_s), "s");
  report.note("trial_s.p50", median(t.trial_s), "s");
  report.note("trials", static_cast<double>(t.trials), "count");
  report.note("majority_win_rate", t.majority_wins / static_cast<double>(t.trials), "ratio");
  report.note("mean_parallel_time",
              t.parallel_time_sum / static_cast<double>(t.trials), "time");
}

void report_per_layer(const Totals& untraced, const Totals& traced,
                      Report& report) {
  for (std::size_t i = 0; i < traced.passes.size(); ++i) {
    report.op(traced.passes[i].report == untraced.passes[i].report,
              "traced sweep report " + std::to_string(i) +
                  " differs from the untraced one");
  }
  const std::vector<SpanRecord> spans = collect_spans();
  const std::map<std::string, TallyTotal> tallies = collect_tallies();
  const auto tally_seconds = [&](const std::string& name) {
    const auto it = tallies.find(name);
    return it == tallies.end() ? 0.0 : it->second.seconds;
  };
  report.set("sweep.busy_s", traced.busy_s);
  report.set("sweep.idle_s", traced.idle_s);
  report.set("sweep.tail_s", traced.tail_s);
  report.set("sweep.tasks", traced.tasks);
  report.set("sweep.steals", traced.steals);
  report.set("sweep.stolen_tasks", traced.stolen);
  report.set("sweep.trials_run", static_cast<double>(traced.trials));
  report.set("sweep.render_s", traced.render_s);
  report.set("sweep.report_bytes", traced.report_bytes);

  const auto per_interaction = [&](const char* span, double interactions) {
    return interactions > 0.0 ? span_seconds(spans, span) * 1e9 / interactions : 0.0;
  };
  report.set("engine.usd.ns_per_interaction",
             per_interaction("engine.usd.run_until_stable", traced.usd_interactions));
  report.set("engine.table.ns_per_interaction",
             per_interaction("engine.table.run_until_stable", traced.table_interactions));
  report.set("engine.interactions", traced.usd_interactions + traced.table_interactions);

  report.set("collapsed.rounds", traced.rounds);
  report.set("collapsed.tau_mean", traced.rounds > 0.0 ? traced.tau_sum / traced.rounds : 0.0);
  report.set("collapsed.local_rounds", traced.local_rounds);
  report.set("collapsed.clamped", traced.clamped);
  report.set("collapsed.stage_s", tally_seconds("collapsed.stage_round"));
  for (const char* kind : {"scalar", "avx2"}) {
    const std::string prefix = std::string("kernels.") + kind;
    const auto advance = tallies.find(prefix + ".advance");
    const double advance_s = advance == tallies.end() ? 0.0 : advance->second.seconds;
    const double launches = advance == tallies.end() ? 0.0 : advance->second.count;
    report.set(prefix + ".advance_s", advance_s);
    report.set(prefix + ".ns_per_round", launches > 0 ? advance_s * 1e9 / launches : 0.0);
    report.set(prefix + ".commit_s", tally_seconds(prefix + ".commit"));
  }
  report.set("trace.overhead_s", traced.wall_s() - untraced.wall_s());
}

/// Runs `w` as the run configuration asks: once untraced for the
/// end-to-end metrics, or untraced then traced for the per-layer ones.
void run_trial_workload(const RunConfig& cfg, const TrialWorkload& w,
                        double setup_s, Report& report) {
  const Totals untraced = run_phase(w, report);
  if (!cfg.trace) {
    report_end_to_end(untraced, w.op_is_job, setup_s, report);
    return;
  }
  clear_spans();
  set_tracing(true);
  const Totals traced = run_phase(w, report);
  set_tracing(false);
  report_per_layer(untraced, traced, report);
}

/// Workers for fig1_seq and sweep_grid: the host's cores, at most 4.
unsigned worker_threads() {
  return std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4);
}

/// Work units for a phase: `per_second` units per nominal second, after
/// `reserved` seconds of other work, halved for traced runs (which measure
/// the work twice); at least one.
std::size_t units(const RunConfig& cfg, double per_second, double reserved = 0.0) {
  const double seconds = (cfg.trace ? cfg.seconds / 2.0 : cfg.seconds) - reserved;
  return std::max<long>(1, std::lround(seconds * per_second));
}

}  // namespace

// --------------------------------------------------------------- fig1_seq --
// Figure 1 (k = 3, n = 10^6) on the two exact sequential paths: cell 0 runs
// UsdEngine (what ppsim_run --engine auto uses), cell 1 the generic
// table-driven Engine(kSequential).
void run_fig1_seq(const RunConfig& cfg, Report& report) {
  constexpr Count kN = 1'000'000;
  constexpr std::size_t kK = 3;
  // Trials are independent, so each still runs one engine on one thread;
  // every core adds trials to the run, which the host's run-to-run noise
  // needs (perfbench/README.md).
  const unsigned threads = worker_threads();
  const std::size_t trials = units(cfg, 0.55 * threads);

  std::vector<CellInputs> inputs;
  SweepSpec spec;
  const double setup_s = median_setup_seconds(report, [&] {
    inputs.push_back(make_inputs(figure1_configuration(kN, kK)));
    warm_up(inputs[0], Path::kUsdEngine, kernels::KernelKind::kScalar, 100'000);
    warm_up(inputs[0], Path::kTableEngine, kernels::KernelKind::kScalar, 100'000);
    spec = SweepSpec{};
    spec.name = "fig1_seq";
    spec.trials = trials;
    spec.base_seed = cfg.seed;
    spec.threads = threads;
    for (const char* name : {"usd_engine", "table_engine"}) {
      SweepCell cell;
      cell.n = kN;
      cell.k = kK;
      cell.bias = static_cast<double>(inputs[0].init.bias);
      cell.engine = EngineKind::kSequential;
      cell.name = name;
      spec.cells.push_back(cell);
    }
    (void)SweepRunner(spec);
  }, [&] { inputs.clear(); });

  TrialWorkload w;
  w.specs = {spec};
  w.body = [&](const SweepTrial& ctx, TrialSlot& slot) {
    return ctx.cell_index == 0 ? usd_engine_trial(inputs[0], ctx, slot)
                               : table_engine_trial(inputs[0], ctx, slot);
  };
  run_trial_workload(cfg, w, setup_s, report);
}

// ---------------------------------------------------------- k32_collapsed --
// The paper-scale recipe: adversarial configuration with bias whp_bias(n),
// k = 32, n = 10^9, collapsed engine, scalar kernel, per-trial path, one
// thread (concurrent scalar trials share cores on the reference host and
// ran 1.6x slower each at 4 workers). After the trials, trial 0 is recorded
// to an archive with checkpoints and its stabilization time read back.
void run_k32_collapsed(const RunConfig& cfg, Report& report) {
  constexpr Count kN = 1'000'000'000;
  constexpr std::size_t kK = 32;
  const std::size_t trials = units(cfg, 0.8, 1.5);

  std::vector<CellInputs> inputs;
  SweepSpec spec;
  const double setup_s = median_setup_seconds(report, [&] {
    inputs.push_back(make_inputs(adversarial_configuration(
        kN, kK, static_cast<Count>(bounds::whp_bias(kN)))));
    warm_up(inputs[0], Path::kCollapsed, kernels::KernelKind::kScalar, kN / 2);
    spec = SweepSpec{};
    spec.name = "k32_collapsed";
    spec.trials = trials;
    spec.base_seed = cfg.seed;
    spec.threads = 1;
    spec.kernel = kernels::KernelKind::kScalar;
    SweepCell cell;
    cell.n = kN;
    cell.k = kK;
    cell.bias = static_cast<double>(inputs[0].init.bias);
    cell.engine = EngineKind::kCollapsed;
    spec.cells.push_back(cell);
    (void)SweepRunner(spec);
  }, [&] { inputs.clear(); });

  std::filesystem::create_directories(cfg.scratch);
  const std::string archive = cfg.scratch + "/k32_trial0.pptraj";

  TrialWorkload w;
  w.specs = {spec};
  w.body = [&](const SweepTrial& ctx, TrialSlot& slot) {
    return collapsed_trial(inputs[0], ctx, slot);
  };
  w.after = [&](Totals& totals, Report& rep) {
    const TrialSlot& live = totals.passes.front().slots.front();
    const double t0 = now_s();
    io::ArchiveRunSpec rspec;
    rspec.engine = EngineKind::kCollapsed;
    rspec.protocol_name = "usd";
    rspec.seed = live.engine_seed;
    rspec.k = static_cast<Count>(kK);
    rspec.max_interactions = budget_for(kN);
    rspec.checkpoint_every = sat_mul(20, kN);
    RunOutcome recorded;
    {
      const Span span("io.record_run");
      recorded = io::record_run(*inputs[0].protocol, inputs[0].initial,
                                io::usd_archive_channels(kK), rspec, archive);
    }
    const double t1 = now_s();
    std::size_t samples = 0;
    std::size_t checkpoints = 0;
    HittingResult replay;
    {
      const Span span("io.read_back");
      const io::TrajectoryReader reader(archive);
      replay = archive_time_until_stable(reader);
      samples = reader.total_samples();
      checkpoints = reader.checkpoints().size();
    }
    const double t2 = now_s();
    totals.extra_s += t2 - t0;
    rep.op(recorded.interactions == live.interactions && recorded.stabilized,
           "recorded trial diverged from the live trial");
    rep.op(replay.hit && replay.interactions_at_hit == live.interactions &&
               checkpoints > 0,
           "archive read-back stabilization time " +
               std::to_string(replay.interactions_at_hit) +
               " != live trial's " + std::to_string(live.interactions));
    if (tracing()) {
      rep.set("io.record_s", t1 - t0);
      rep.set("io.read_s", t2 - t1);
      rep.set("io.archive_bytes", static_cast<double>(std::filesystem::file_size(archive)));
      rep.set("io.samples", static_cast<double>(samples));
    }
  };
  run_trial_workload(cfg, w, setup_s, report);
  std::filesystem::remove(archive);
}

// ------------------------------------------------------------- sweep_grid --
// An imbalanced grid with adaptive trial counts and the auto kernel: many
// small UsdEngine cells first, a few collapsed n = 10^9 cells last, as
// bench_scaling_lower_bound --engine auto lays them out.
void run_sweep_grid(const RunConfig& cfg, Report& report) {
  const std::vector<Count> small_n = {10'000, 20'000, 40'000};
  const std::vector<std::size_t> small_k = {2, 3, 4, 5, 6, 7, 8};
  constexpr Count kBigN = 1'000'000'000;
  const std::vector<std::size_t> big_k = {16, 32};
  const unsigned threads = worker_threads();
  const std::size_t passes = units(cfg, 0.55);

  std::vector<CellInputs> inputs;
  std::vector<SweepSpec> specs;
  const double setup_s = median_setup_seconds(report, [&] {
    SweepSpec spec;
    spec.name = "sweep_grid";
    spec.trials = 512;  // the --trials auto cap
    spec.threads = threads;
    spec.kernel = kernels::auto_kind();
    spec.stopping.adaptive = true;
    spec.stopping.min_trials = 8;
    spec.stopping.rel_err = 0.1;
    const auto add_cell = [&](Count n, std::size_t k, EngineKind engine) {
      inputs.push_back(make_inputs(figure1_configuration(n, k)));
      SweepCell cell;
      cell.n = n;
      cell.k = k;
      cell.bias = static_cast<double>(inputs.back().init.bias);
      cell.engine = engine;
      spec.cells.push_back(cell);
    };
    for (const Count n : small_n) {
      for (const std::size_t k : small_k) add_cell(n, k, EngineKind::kSequential);
    }
    for (const std::size_t k : big_k) add_cell(kBigN, k, EngineKind::kCollapsed);
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      const bool collapsed = spec.cells[c].engine == EngineKind::kCollapsed;
      warm_up(inputs[c], collapsed ? Path::kCollapsed : Path::kUsdEngine, spec.kernel,
              collapsed ? kBigN / 10 : 10'000);
    }
    SplitMix64 seeds(cfg.seed);
    for (std::size_t p = 0; p < passes; ++p) {
      spec.base_seed = seeds.next();
      specs.push_back(SweepRunner(spec).spec());
    }
  }, [&] {
    inputs.clear();
    specs.clear();
  });

  TrialWorkload w;
  w.specs = specs;
  w.op_is_job = true;
  w.body = [&](const SweepTrial& ctx, TrialSlot& slot) {
    const CellInputs& in = inputs[ctx.cell_index];
    return ctx.cell.engine == EngineKind::kCollapsed ? collapsed_trial(in, ctx, slot)
                                                     : usd_engine_trial(in, ctx, slot);
  };
  run_trial_workload(cfg, w, setup_s, report);
}

}  // namespace perfbench
