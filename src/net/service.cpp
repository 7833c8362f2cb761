#include "ppsim/net/service.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "ppsim/analysis/bounds.hpp"
#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/core/runner.hpp"
#include "ppsim/core/sweep.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/json.hpp"

namespace ppsim::net {

namespace {

/// A request axis that is either one number or an array of numbers.
std::vector<std::int64_t> int_axis(const JsonValue& request,
                                   const std::string& key,
                                   std::int64_t fallback) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) return {fallback};
  if (v->is_array()) {
    PPSIM_CHECK(!v->items().empty(), "request field '" + key + "' is empty");
    std::vector<std::int64_t> out;
    out.reserve(v->items().size());
    for (const JsonValue& item : v->items()) out.push_back(item.as_int());
    return out;
  }
  return {v->as_int()};
}

struct ParsedSubmit {
  SweepSpec spec;
  double max_parallel = 100000.0;
  bool engine_override = false;
  ScenarioSpec scenario;  ///< adversary/churn knobs (sequential engine only)
  std::string fn_id;  ///< trial function identity for the cache key
};

/// Builds the sweep spec a submit request describes, mirroring ppsim_run's
/// construction exactly (auto bias = whp_bias(n), budget = max_parallel * n,
/// engine auto = the specialized sequential UsdEngine) — the server's
/// byte-identity with the offline tool depends on this being the SAME
/// recipe, not a similar one.
ParsedSubmit parse_submit(const JsonValue& request,
                          const ServiceConfig& config) {
  const std::string protocol = request.get_string("protocol", "usd");
  PPSIM_CHECK(protocol == "usd",
              "the sweep service serves --protocol usd only (got '" +
                  protocol + "')");

  ParsedSubmit p;
  p.spec.name = request.get_string("name", "ppsim_run");
  PPSIM_CHECK(!p.spec.name.empty(), "request field 'name' must be non-empty");

  const std::int64_t trials = request.get_int("trials", 1);
  PPSIM_CHECK(trials >= 1 && static_cast<std::size_t>(trials) <= config.max_trials,
              "request field 'trials' out of range [1, " +
                  std::to_string(config.max_trials) + "]");
  p.spec.trials = static_cast<std::size_t>(trials);
  p.spec.base_seed = static_cast<std::uint64_t>(request.get_int("seed", 1));

  std::int64_t threads = request.get_int("threads", 1);
  PPSIM_CHECK(threads >= 0, "request field 'threads' must be >= 0");
  if (config.max_threads > 0) {
    threads = std::min<std::int64_t>(
        threads == 0 ? config.max_threads : threads, config.max_threads);
  }
  p.spec.threads = static_cast<unsigned>(threads);

  // The one round kernel answers to "scalar" and "auto"; any other value is
  // a client error, not something to serve under another kernel's name.
  const std::string kernel = request.get_string("kernel", "scalar");
  PPSIM_CHECK(kernel == "scalar" || kernel == "auto",
              "request field 'kernel' must be scalar or auto (got '" + kernel +
                  "')");

  const std::string engine_flag = request.get_string("engine", "auto");
  std::optional<EngineKind> engine;
  if (engine_flag != "auto") {
    engine = parse_engine(engine_flag);
    PPSIM_CHECK(engine.has_value(),
                "request field 'engine' must be auto | sequential | virtual |"
                " batched | collapsed");
  }
  p.engine_override = engine.has_value();

  p.max_parallel = request.get_number("max_parallel", 100000.0);
  PPSIM_CHECK(p.max_parallel > 0.0,
              "request field 'max_parallel' must be > 0");

  // Scenario knobs (core/scenario.hpp), mirroring ppsim_run's --adversary /
  // --churn. They land in every cell's params, so the canonical cell key —
  // and therefore the cache identity — distinguishes scenario sweeps from
  // plain ones without any fn_id change; a zero-knob request stamps nothing
  // and keys identically to a pre-scenario submit.
  p.scenario.adversary_strength = request.get_number("adversary", 0.0);
  p.scenario.churn_rate = request.get_number("churn", 0.0);
  PPSIM_CHECK(p.scenario.adversary_strength >= 0.0 &&
                  p.scenario.adversary_strength <= 1.0,
              "request field 'adversary' must be in [0, 1]");
  PPSIM_CHECK(p.scenario.churn_rate >= 0.0 && p.scenario.churn_rate <= 1.0,
              "request field 'churn' must be in [0, 1]");
  PPSIM_CHECK(!p.scenario.any() || !p.engine_override,
              "scenario fields (adversary/churn) require engine auto "
              "(the specialized sequential USD engine)");

  const std::vector<std::int64_t> ns = int_axis(request, "n", 100000);
  const std::vector<std::int64_t> ks = int_axis(request, "k", 2);
  PPSIM_CHECK(ns.size() * ks.size() <= config.max_cells,
              "request grid exceeds " + std::to_string(config.max_cells) +
                  " cells");

  const JsonValue* bias_field = request.find("bias");
  const bool auto_bias =
      bias_field == nullptr ||
      (bias_field->is_string() && bias_field->as_string() == "auto");

  // Grid order: n outer, k inner — cell_index feeds the seeding discipline,
  // so this order is part of the cacheable identity of every cell.
  for (const std::int64_t n : ns) {
    PPSIM_CHECK(n >= 2, "request field 'n' must be >= 2");
    for (const std::int64_t k : ks) {
      PPSIM_CHECK(k >= 1, "request field 'k' must be >= 1");
      SweepCell cell;
      cell.n = static_cast<Count>(n);
      cell.k = static_cast<std::size_t>(k);
      const Count bias =
          auto_bias ? static_cast<Count>(bounds::whp_bias(cell.n))
                    : static_cast<Count>(bias_field->as_int());
      cell.bias = static_cast<double>(bias);
      cell.protocol = "usd";
      cell.engine = engine.value_or(EngineKind::kSequential);
      cell.params = p.scenario.params();
      p.spec.cells.push_back(std::move(cell));
    }
  }

  // The budget (max_parallel * n) is the only trial input not already in the
  // canonical cell key, so the fn id carries it; n is in the key, making the
  // per-cell budget fully determined.
  p.fn_id = std::string(p.engine_override ? "usd/engine/v1" : "usd/specialized/v1") +
            ";max_parallel=" + JsonObject::render_double(p.max_parallel);
  return p;
}

/// The two USD trial bodies, verbatim from examples/ppsim_run.cpp (budget
/// and initial configuration derived per cell instead of hoisted, which
/// changes no bytes — both are deterministic functions of the cell).
SweepTrialFn make_trial_fn(const ParsedSubmit& p) {
  const double max_parallel = p.max_parallel;
  if (p.engine_override) {
    return [max_parallel](const SweepTrial& ctx) {
      const UndecidedStateDynamics usd(ctx.cell.k);
      const InitialConfig init = adversarial_configuration(
          ctx.cell.n, ctx.cell.k, static_cast<Count>(ctx.cell.bias));
      const Configuration initial =
          UndecidedStateDynamics::initial_configuration(init.opinion_counts);
      const auto budget = static_cast<Interactions>(
          max_parallel * static_cast<double>(ctx.cell.n));
      Engine engine(ctx.cell.engine, usd, initial, ctx.seed,
                    {.round_divisor = ctx.cell.round_divisor});
      return consensus_metrics(run_engine_trial(engine, budget));
    };
  }
  if (p.scenario.any()) {
    // Scenario body, verbatim from ppsim_run: engine seeded from ctx.seed
    // first, then the adversary's and churn's streams drawn from the trial
    // rng — so the server reproduces the offline tool's bytes exactly.
    const ScenarioSpec sc = p.scenario;
    return [max_parallel, sc](const SweepTrial& ctx) {
      const InitialConfig init = adversarial_configuration(
          ctx.cell.n, ctx.cell.k, static_cast<Count>(ctx.cell.bias));
      const auto budget = static_cast<Interactions>(
          max_parallel * static_cast<double>(ctx.cell.n));
      UsdEngine engine(init.opinion_counts, ctx.seed);
      AdversarialScheduler adversary(sc.adversary_strength, ctx.rng());
      ChurnModel churn(sc.churn_rate, sc.churn_rate,
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
    };
  }
  return [max_parallel](const SweepTrial& ctx) {
    const InitialConfig init = adversarial_configuration(
        ctx.cell.n, ctx.cell.k, static_cast<Count>(ctx.cell.bias));
    const auto budget = static_cast<Interactions>(
        max_parallel * static_cast<double>(ctx.cell.n));
    UsdEngine engine(init.opinion_counts, ctx.seed);
    engine.run_until_stable(budget);
    TrialResult r;
    r.stabilized = engine.stabilized();
    r.interactions = engine.interactions();
    r.parallel_time = engine.time();
    r.winner = engine.winner();
    return consensus_metrics(r);
  };
}

std::string cell_line(const SweepCellResult& cr, bool cached) {
  JsonObject line;
  line.field("type", "cell")
      .field("cell_index", static_cast<std::int64_t>(cr.cell_index))
      .field("cached", cached)
      .field_json("data", sweep_cell_json(cr));
  return line.str();
}

}  // namespace

SweepService::SweepService(ServiceConfig config)
    : config_(std::move(config)),
      cache_({.memory_capacity = config_.cache_memory,
              .disk_dir = config_.cache_dir}) {}

void SweepService::run_job(const JsonValue& request, const EmitFn& emit,
                           const std::atomic<bool>* cancel) {
  const ParsedSubmit parsed = parse_submit(request, config_);
  const SweepRunner runner(parsed.spec);
  const SweepSpec& spec = runner.spec();
  const std::size_t num_cells = spec.cells.size();

  const std::lock_guard<std::mutex> job_lock(job_mutex_);

  std::vector<std::string> keys(num_cells);
  std::vector<std::optional<cache::CachedCellData>> hits(num_cells);
  SweepJobOptions opts;
  opts.skip.assign(num_cells, false);
  for (std::size_t c = 0; c < num_cells; ++c) {
    keys[c] = cache::canonical_cell_key(spec, c, parsed.fn_id);
    hits[c] = cache_.lookup(keys[c]);
    if (hits[c].has_value()) opts.skip[c] = true;
  }

  // One stop flag feeds the runner: a vanished client (emit false), an
  // external cancel, either way the job winds down cooperatively.
  std::atomic<bool> stop{false};
  std::mutex emit_mutex;
  const auto emit_line = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(emit_mutex);
    if (!emit(line)) stop.store(true, std::memory_order_release);
  };

  // Cache hits replay first, in index order: stamp the cell from the spec,
  // rebuild aggregates through the shared path, stream.
  std::vector<SweepCellResult> replayed(num_cells);
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!hits[c].has_value()) continue;
    SweepCellResult& cr = replayed[c];
    cr.cell = spec.cells[c];
    cr.cell_index = c;
    cr.trials_requested = hits[c]->trials_requested;
    cr.trials_run = hits[c]->trials_run;
    cr.trials = hits[c]->trials;
    aggregate_sweep_cell(cr);
    emit_line(cell_line(cr, /*cached=*/true));
  }

  opts.cancel = &stop;
  opts.on_cell = [&](const SweepCellResult& cr) {
    cache_.insert(keys[cr.cell_index],
                  {cr.trials_requested, cr.trials_run, cr.trials});
    emit_line(cell_line(cr, /*cached=*/false));
  };

  const SweepTrialFn fn = make_trial_fn(parsed);
  const SweepTrialFn wrapped = [&](const SweepTrial& ctx) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      stop.store(true, std::memory_order_release);
    }
    return fn(ctx);
  };
  SweepResult result = runner.run_job(wrapped, opts);

  std::uint64_t executed = 0;
  for (const SweepCellResult& cr : result.cells) {
    executed += cr.trials_run;
  }
  std::uint64_t cached_cells = 0;
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!hits[c].has_value()) continue;
    result.cells[c] = std::move(replayed[c]);
    ++cached_cells;
  }

  if (result.cancelled) {
    {
      const std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.jobs_failed;
    }
    emit_line(JsonObject()
                  .field("type", "error")
                  .field("error", "job cancelled")
                  .str());
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.jobs_completed;
    counters_.cells_served += num_cells;
    counters_.cells_from_cache += cached_cells;
    counters_.trials_executed += executed;
  }

  // The report travels as an escaped string so the client can recover the
  // exact bytes (re-rendering parsed JSON would be a second serializer and
  // an invitation to drift).
  JsonObject done;
  done.field("type", "done")
      .field("cells", static_cast<std::int64_t>(num_cells))
      .field("cached_cells", static_cast<std::int64_t>(cached_cells))
      .field("trials_executed", static_cast<std::int64_t>(executed))
      .field("report", result.to_json());
  emit_line(done.str());
}

std::string SweepService::stats_json() const {
  const cache::CellCacheStats cs = cache_.stats();
  ServiceCounters sc = counters();
  JsonObject cache_obj;
  cache_obj.field("hits", static_cast<std::int64_t>(cs.hits))
      .field("memory_hits", static_cast<std::int64_t>(cs.memory_hits))
      .field("disk_hits", static_cast<std::int64_t>(cs.disk_hits))
      .field("misses", static_cast<std::int64_t>(cs.misses))
      .field("insertions", static_cast<std::int64_t>(cs.insertions))
      .field("evictions", static_cast<std::int64_t>(cs.evictions));
  JsonObject service_obj;
  service_obj
      .field("jobs_completed", static_cast<std::int64_t>(sc.jobs_completed))
      .field("jobs_failed", static_cast<std::int64_t>(sc.jobs_failed))
      .field("cells_served", static_cast<std::int64_t>(sc.cells_served))
      .field("cells_from_cache",
             static_cast<std::int64_t>(sc.cells_from_cache))
      .field("trials_executed",
             static_cast<std::int64_t>(sc.trials_executed));
  JsonObject line;
  line.field("type", "stats")
      .field("cache", cache_obj)
      .field("service", service_obj);
  return line.str();
}

ServiceCounters SweepService::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

}  // namespace ppsim::net
