// paper_fig3 and sweep_ckpt: the population sweeps.
//
// Untraced runs time whole jobs through the public sweep entry points
// (sim::evaluate, sim::BatchSweepEngine).  Traced runs re-drive the same
// computation layer by layer from here — ReservationStream::generate and
// sim::simulate per (user, purchaser, seller) on the same pool size — and
// check that the layered results digest equal to the untraced ones, so the
// split is of the same work.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/normalize.hpp"
#include "analysis/reports.hpp"
#include "common/durable_file.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "pricing/catalog.hpp"
#include "selling/fixed_spot.hpp"
#include "sim/batch_engine.hpp"
#include "sim/scenario.hpp"
#include "sim/seeding.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rimarket;

workload::UserPopulation fig3_population(const Fig3Size& size, std::uint64_t seed) {
  workload::PopulationSpec spec;
  spec.users_per_group = size.users_per_group;
  spec.trace_hours = size.trace_hours;
  spec.seed = seed;
  return workload::UserPopulation::build(spec);
}

sim::EvaluationSpec fig3_spec(std::uint64_t seed, std::size_t threads) {
  sim::EvaluationSpec spec;
  spec.sim.type = pricing::PricingCatalog::builtin().require("d2.xlarge");
  spec.sim.selling_discount = Fraction{0.8};
  spec.seed = seed;
  spec.threads = threads;
  spec.sellers = {
      sim::SellerSpec{sim::SellerKind::kKeepReserved, Fraction{0.0}},
      sim::SellerSpec{sim::SellerKind::kAllSelling, selling::kSpot3T4},
      sim::SellerSpec{sim::SellerKind::kAllSelling, selling::kSpotT2},
      sim::SellerSpec{sim::SellerKind::kAllSelling, selling::kSpotT4},
      sim::SellerSpec{sim::SellerKind::kA3T4, selling::kSpot3T4},
      sim::SellerSpec{sim::SellerKind::kAT2, selling::kSpotT2},
      sim::SellerSpec{sim::SellerKind::kAT4, selling::kSpotT4},
  };
  return spec;
}

namespace {

/// Renders the panels from already-normalized results (the render stage
/// alone, for the traced split).
std::string render_panels(const std::vector<analysis::NormalizedResult>& normalized) {
  const struct {
    const char* panel;
    sim::SellerSpec algorithm;
    sim::SellerSpec all_selling;
  } panels[] = {
      {"(a)", {sim::SellerKind::kA3T4, selling::kSpot3T4},
       {sim::SellerKind::kAllSelling, selling::kSpot3T4}},
      {"(b)", {sim::SellerKind::kAT2, selling::kSpotT2},
       {sim::SellerKind::kAllSelling, selling::kSpotT2}},
      {"(c)", {sim::SellerKind::kAT4, selling::kSpotT4},
       {sim::SellerKind::kAllSelling, selling::kSpotT4}},
  };
  std::string text;
  for (const auto& panel : panels) {
    text += std::string("--- Fig. 3") + panel.panel + " ---\n";
    text += analysis::render_fig3_panel(normalized, panel.algorithm, panel.all_selling);
    text += "\n";
  }
  return text;
}

std::string text_digest(const std::string& text) {
  Digest digest;
  digest.update(text);
  return digest.hex();
}

/// The committed digest when there is one, else the independent path's.
std::string expected_or(const std::string& committed, const auto& independent) {
  return committed.empty() ? independent() : committed;
}

/// One traced (user x purchaser x seller) pass over the population, the
/// same loop sim::evaluate_user runs, with a span per layer call.
struct LayeredSweep {
  std::vector<sim::ScenarioResult> results;
  SpanLog spans;
  std::int64_t hour_steps = 0;
};

LayeredSweep layered_sweep(const workload::UserPopulation& population,
                           const sim::EvaluationSpec& spec, std::size_t threads) {
  const std::vector<workload::User>& users = population.users();
  const Clock::time_point origin = Clock::now();
  std::vector<std::vector<sim::ScenarioResult>> per_user(users.size());
  std::vector<SpanLog> per_user_spans(users.size(), SpanLog(origin));
  std::vector<std::int64_t> per_user_steps(users.size(), 0);
  {
    common::ThreadPool pool(threads);
    common::parallel_for(pool, users.size(), [&](std::size_t index) {
      const workload::User& user = users[index];
      SpanLog& spans = per_user_spans[index];
      const auto op = static_cast<std::uint64_t>(user.id);
      const Clock::time_point user_begin = Clock::now();
      const std::int32_t user_span = spans.add("sim.user", op, user_begin, user_begin);
      const Hour horizon = spec.sim.effective_horizon(user.trace);
      for (const purchasing::PurchaserKind kind : spec.purchasers) {
        const std::uint64_t run_seed =
            sim::seeding::per_run_seed(spec.seed, user.id, static_cast<int>(kind));
        const Clock::time_point replay_begin = Clock::now();
        const auto purchaser = purchasing::make_purchaser(kind, spec.sim.type, run_seed);
        const sim::ReservationStream stream = sim::ReservationStream::generate(
            user.trace, *purchaser, horizon, spec.sim.type.term);
        spans.add("purchasing.replay", op, replay_begin, Clock::now(), user_span);
        for (const sim::SellerSpec& seller_spec : spec.sellers) {
          const auto seller =
              sim::make_seller(seller_spec, spec.sim, run_seed, &user.trace, &stream);
          const Clock::time_point pass_begin = Clock::now();
          const sim::SimulationResult run = sim::simulate(user.trace, stream, *seller, spec.sim);
          spans.add("sim.seller_pass", op, pass_begin, Clock::now(), user_span);
          per_user_steps[index] += horizon;
          sim::ScenarioResult result;
          result.user_id = user.id;
          result.group = user.group;
          result.purchaser = kind;
          result.seller = seller_spec;
          result.net_cost = run.net_cost();
          result.reservations_made = run.reservations_made;
          result.instances_sold = run.instances_sold;
          result.on_demand_hours = run.on_demand_hours;
          per_user[index].push_back(result);
        }
      }
      spans.finish(user_span, Clock::now());
    });
  }
  LayeredSweep out{{}, SpanLog(origin), 0};
  for (std::size_t i = 0; i < users.size(); ++i) {
    out.results.insert(out.results.end(), per_user[i].begin(), per_user[i].end());
    out.spans.merge(per_user_spans[i]);
    out.hour_steps += per_user_steps[i];
  }
  return out;
}

void remove_checkpoint(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".tmp", ignored);
}

sim::BatchSweepOutcome checkpointed_sweep(const workload::UserPopulation& population,
                                          const sim::EvaluationSpec& spec,
                                          const std::string& path) {
  remove_checkpoint(path);  // a stale file from a killed run would be resumed
  sim::BatchOptions batch;
  batch.checkpoint_path = path;
  batch.checkpoint_every_shards = 1;
  sim::BatchSweepEngine engine(spec, batch);
  return engine.run(population.users());
}

/// Builds the population `repeats` times and returns the median build time;
/// `population` keeps the last one.
template <typename Build>
double timed_setup(int repeats, workload::UserPopulation& population, const Build& build) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    population = workload::UserPopulation{};
    const Clock::time_point begin = Clock::now();
    population = build();
    times.push_back(seconds_since(begin));
  }
  return median(times);
}

constexpr int kSetupRepeats = 5;

}  // namespace

std::string render_fig3(const std::vector<sim::ScenarioResult>& results) {
  return render_panels(analysis::normalize_to_keep(results));
}

workload::UserPopulation checkpoint_population(const CheckpointSize& size, std::uint64_t seed) {
  workload::PopulationSpec spec;
  spec.users_per_group = size.users_per_group;
  spec.trace_hours = size.trace_hours;
  spec.seed = seed;
  return workload::UserPopulation::build(spec);
}

sim::EvaluationSpec checkpoint_spec(std::uint64_t seed, std::size_t threads) {
  sim::EvaluationSpec spec;
  // theta = p*T/R = 2, inside the paper's (1, 4) band, with a term short
  // enough that contracts reach their decision spots and expire in-trace.
  spec.sim.type = pricing::InstanceType{"bench.ckpt", Rate{1.0}, Money{600.0}, Rate{0.25}, 1200};
  spec.sim.selling_discount = Fraction{0.8};
  spec.sellers = sim::paper_sellers(Fraction{0.75});
  spec.seed = seed;
  spec.threads = threads;
  return spec;
}

std::string report_digest(const sim::SweepReport& report) {
  Digest digest;
  for (const sim::ScenarioResult& r : report.results) {
    digest.update_u64(static_cast<std::uint64_t>(r.user_id));
    digest.update_u64(static_cast<std::uint64_t>(r.group));
    digest.update_u64(static_cast<std::uint64_t>(r.purchaser));
    digest.update_u64(static_cast<std::uint64_t>(r.seller.kind));
    digest.update_double(r.seller.fraction.value());
    digest.update_double(r.net_cost.value());
    digest.update_u64(static_cast<std::uint64_t>(r.reservations_made));
    digest.update_u64(static_cast<std::uint64_t>(r.instances_sold));
    digest.update_u64(static_cast<std::uint64_t>(r.on_demand_hours));
  }
  for (const sim::QuarantinedUser& q : report.quarantined) {
    digest.update_u64(static_cast<std::uint64_t>(q.user_id));
    digest.update(q.site);
    digest.update(q.message);
  }
  digest.update_u64(report.retries);
  digest.update_u64(report.injected_faults);
  digest.update_double(report.virtual_backoff_ms);
  return digest.hex();
}

void run_paper_fig3(const WorkloadRun& run) {
  const RunOptions& options = run.options;
  Outcome& outcome = run.outcome;
  const sim::EvaluationSpec spec = fig3_spec(options.seed, options.threads);
  workload::UserPopulation population;
  const double setup_s = timed_setup(kSetupRepeats, population, [&] {
    return fig3_population(Fig3Size{}, options.seed);
  });
  const std::string expected = expected_or(run.expected_digest, [&] {
    sim::SweepReport oracle = sim::evaluate_sweep_batch(population.users(), spec);
    return text_digest(render_fig3(oracle.results));
  });

  std::vector<double> job_s, busy_ratio, traced_s, replay_s, pass_s, normalize_s, render_s;
  std::int64_t hour_steps = 0;
  SpanLog last_spans;
  const Clock::time_point phase = Clock::now();
  do {
    const Clock::time_point begin = Clock::now();
    const std::vector<sim::ScenarioResult> results = sim::evaluate(population, spec);
    const double sweep_s = seconds_since(begin);
    const std::string text = render_fig3(results);
    job_s.push_back(seconds_since(begin));
    outcome.check(text_digest(text) == expected);
    const double task_ms =
        common::MetricsRegistry::global().get("sim.evaluate.total_task_millis").value_or(0.0);
    busy_ratio.push_back(task_ms / 1e3 / (static_cast<double>(options.threads) * sweep_s));
    if (!options.trace) {
      continue;
    }
    const Clock::time_point traced_begin = Clock::now();
    LayeredSweep layered = layered_sweep(population, spec, options.threads);
    const Clock::time_point normalize_begin = Clock::now();
    const auto normalized = analysis::normalize_to_keep(layered.results);
    const Clock::time_point render_begin = Clock::now();
    const std::string traced_text = render_panels(normalized);
    const Clock::time_point traced_end = Clock::now();
    traced_s.push_back(seconds_between(traced_begin, traced_end));
    outcome.check(text_digest(traced_text) == expected);
    replay_s.push_back(layered.spans.total_seconds("purchasing.replay"));
    pass_s.push_back(layered.spans.total_seconds("sim.seller_pass"));
    normalize_s.push_back(seconds_between(normalize_begin, render_begin));
    render_s.push_back(seconds_between(render_begin, traced_end));
    hour_steps = layered.hour_steps;
    layered.spans.add("analysis.normalize", 0, normalize_begin, render_begin);
    layered.spans.add("analysis.render", 0, render_begin, traced_end);
    last_spans = std::move(layered.spans);
  } while (seconds_since(phase) < options.seconds);
  outcome.job_seconds = job_s;

  if (!options.trace) {
    outcome.set("setup_s", setup_s, "s");
    outcome.set("job_s", median(job_s), "s");
    return;
  }
  outcome.set("workload.population_build_s", setup_s, "s");
  outcome.set("purchasing.replay_s", median(replay_s), "s");
  outcome.set("sim.seller_pass_s", median(pass_s), "s");
  outcome.set("sim.hour_steps", static_cast<double>(hour_steps), "count");
  outcome.set("sim.seller_pass_ns_per_hour_step",
              median(pass_s) * 1e9 / static_cast<double>(hour_steps), "ns");
  outcome.set("sim.evaluate.pool_busy_ratio", median(busy_ratio), "ratio");
  outcome.set("analysis.normalize_s", median(normalize_s), "s");
  outcome.set("analysis.render_s", median(render_s), "s");
  outcome.set("trace.overhead_s", median(traced_s) - median(job_s), "s");
  std::size_t clamped = 0;
  last_spans.self_micros_of("sim.user", &clamped);
  outcome.set("trace.self_time_clamped", static_cast<double>(clamped), "count");
  write_spans(options, last_spans);
}

void run_sweep_ckpt(const WorkloadRun& run) {
  const RunOptions& options = run.options;
  Outcome& outcome = run.outcome;
  const sim::EvaluationSpec spec = checkpoint_spec(options.seed, options.threads);
  const std::string path = options.work_dir + "/sweep.ckpt";
  workload::UserPopulation population;
  const double setup_s = timed_setup(kSetupRepeats, population, [&] {
    return checkpoint_population(CheckpointSize{}, options.seed);
  });
  // The no-checkpoint sweep is the independent path: it must agree with
  // the checkpointed one in every run that measures it.
  const auto plain_sweep = [&] {
    return sim::evaluate_sweep_batch(population.users(), spec);
  };
  const std::string expected = expected_or(run.expected_digest, [&] {
    return report_digest(plain_sweep());
  });

  std::vector<double> job_s, sweep_s;
  std::size_t shards = 0;
  SpanLog spans;
  const Clock::time_point phase = Clock::now();
  std::uint64_t job = 0;
  do {
    const Clock::time_point begin = Clock::now();
    const sim::BatchSweepOutcome result = checkpointed_sweep(population, spec, path);
    const Clock::time_point end = Clock::now();
    job_s.push_back(seconds_between(begin, end));
    outcome.check(result.finished && report_digest(result.report) == expected);
    shards = result.shards_total;
    if (!options.trace) {
      continue;
    }
    spans.add("sim.batch.checkpointed_sweep", job, begin, end);
    const Clock::time_point plain_begin = Clock::now();
    const sim::SweepReport plain = plain_sweep();
    const Clock::time_point plain_end = Clock::now();
    sweep_s.push_back(seconds_between(plain_begin, plain_end));
    spans.add("sim.batch.sweep", job, plain_begin, plain_end);
    outcome.check(report_digest(plain) == expected);
    ++job;
  } while (seconds_since(phase) < options.seconds);
  outcome.job_seconds = job_s;

  if (!options.trace) {
    outcome.set("setup_s", setup_s, "s");
    outcome.set("job_s", median(job_s), "s");
    return;
  }
  const SelfTime checkpoint = self_time(median(job_s), median(sweep_s));
  outcome.set("workload.population_build_s", setup_s, "s");
  outcome.set("sim.batch.sweep_s", median(sweep_s), "s");
  outcome.set("sim.batch.checkpoint_s", checkpoint.value, "s");
  outcome.set("sim.batch.shards", static_cast<double>(shards), "count");
  outcome.set("trace.self_time_clamped", checkpoint.clamped ? 1.0 : 0.0, "count");

  // The largest checkpoint the engine writes: the file after a slice that
  // stops one shard short of the end (max_shards_per_run slicing).
  remove_checkpoint(path);
  sim::BatchOptions sliced;
  sliced.checkpoint_path = path;
  sliced.max_shards_per_run = shards - 1;
  sim::BatchSweepEngine engine(spec, sliced);
  const sim::BatchSweepOutcome first = engine.run(population.users());
  std::error_code size_error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  outcome.check(!first.finished && !size_error);
  const sim::BatchSweepOutcome rest = engine.run(population.users());
  outcome.check(rest.finished && report_digest(rest.report) == expected);
  outcome.set("sim.batch.checkpoint_file_bytes", static_cast<double>(file_bytes), "bytes");

  // atomic_replace of a payload that size, with the production fsync mode.
  const std::string payload(static_cast<std::size_t>(file_bytes), 'c');
  const std::string probe = options.work_dir + "/probe.replace";
  std::vector<double> replace_us;
  constexpr int kReplaceSamples = 1000;
  for (int i = 0; i < kReplaceSamples; ++i) {
    const Clock::time_point begin = Clock::now();
    const bool ok = common::durable::atomic_replace(probe, payload,
                                                    common::durable::FsyncMode::kAlways);
    replace_us.push_back(micros(begin, Clock::now()));
    if (!ok) {
      outcome.check(false);
      break;
    }
  }
  report_us(outcome, "common.durable.atomic_replace_us", std::move(replace_us));
  write_spans(options, spans);
}

void report_us(Outcome& outcome, const std::string& name, std::vector<double> samples) {
  const auto p50 = percentile(samples, 0.50);
  const auto p99 = percentile(samples, 0.99);
  if (!p50 || !p99) {
    std::fprintf(stderr, "perfbench: %s has %zu samples, too few for a p99\n", name.c_str(),
                 samples.size());
    outcome.check(false);
    return;
  }
  outcome.set(name + ".p50", *p50, "us");
  outcome.set(name + ".p99", *p99, "us");
}

void write_spans(const RunOptions& options, const SpanLog& spans) {
  const std::string path = options.spans_dir + "/" + options.workload + ".tsv";
  if (!spans.write_tsv(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

std::string reference_digest(const std::string& workload, std::uint64_t seed,
                             std::size_t threads) {
  if (workload == "paper_fig3") {
    const workload::UserPopulation population = fig3_population(Fig3Size{}, seed);
    const sim::EvaluationSpec spec = fig3_spec(seed, threads);
    const std::string main_path = text_digest(render_fig3(sim::evaluate(population, spec)));
    const std::string oracle =
        text_digest(render_fig3(sim::evaluate_sweep_batch(population.users(), spec).results));
    return main_path == oracle ? main_path : std::string();
  }
  if (workload == "sweep_ckpt") {
    const workload::UserPopulation population =
        checkpoint_population(CheckpointSize{}, seed);
    const sim::EvaluationSpec spec = checkpoint_spec(seed, threads);
    const std::string batch = report_digest(sim::evaluate_sweep_batch(population.users(), spec));
    const std::string oracle = report_digest(sim::evaluate_sweep(population, spec));
    return batch == oracle ? batch : std::string();
  }
  return serve_reference_digest(workload, seed);
}

}  // namespace perfbench
