// The benchmark's four workloads and the input builders and digests their
// correctness gates use.  Input builders take explicit sizes so the helper
// tests can run the same code on small inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/runner.hpp"
#include "workload/population.hpp"

namespace perfbench {

/// paper_fig3 inputs: bench_fig3_cdf's defaults (100 users per fluctuation
/// group over two years, d2.xlarge, a = 0.8, the seven-seller line-up).
struct Fig3Size {
  int users_per_group = 100;
  rimarket::Hour trace_hours = 2 * rimarket::kHoursPerYear;
};
rimarket::workload::UserPopulation fig3_population(const Fig3Size& size, std::uint64_t seed);
rimarket::sim::EvaluationSpec fig3_spec(std::uint64_t seed, std::size_t threads);
/// The three Fig. 3 panels exactly as bench_fig3_cdf prints them.
std::string render_fig3(const std::vector<rimarket::sim::ScenarioResult>& results);

/// sweep_ckpt inputs: many users on short traces, with a 1,200 h term so
/// contracts expire and sell inside the trace.
struct CheckpointSize {
  int users_per_group = 2000;
  rimarket::Hour trace_hours = 2000;
};
rimarket::workload::UserPopulation checkpoint_population(const CheckpointSize& size,
                                                         std::uint64_t seed);
rimarket::sim::EvaluationSpec checkpoint_spec(std::uint64_t seed, std::size_t threads);
/// Digest of every field of a SweepReport, doubles by exact bit pattern.
std::string report_digest(const rimarket::sim::SweepReport& report);

/// Workload entry points.  `expected_digest` is the committed digest for
/// this seed, or empty when none is committed (the run then checks against
/// an independent path computed in the same run).  `digest_only` computes
/// and prints the reference digest without timing anything.
struct WorkloadRun {
  const RunOptions& options;
  std::string expected_digest;
  Outcome& outcome;
};
void run_paper_fig3(const WorkloadRun& run);
void run_sweep_ckpt(const WorkloadRun& run);
void run_serve_read(const WorkloadRun& run);
void run_serve_write(const WorkloadRun& run);

/// Reference digest of a workload's output for `seed` (paper_fig3,
/// sweep_ckpt, serve_read), cross-checked against the independent path;
/// empty when the two disagree.
std::string reference_digest(const std::string& workload, std::uint64_t seed,
                             std::size_t threads);

/// serve_read's reference digest (empty for other workloads or when the
/// service and the layer-composed responses disagree).
std::string serve_reference_digest(const std::string& workload, std::uint64_t seed);

/// Sets `<name>.p50` and `<name>.p99` from `samples` (microseconds).  A tail
/// without ten samples beyond it is not reported: the run is marked
/// incorrect instead.
void report_us(Outcome& outcome, const std::string& name, std::vector<double> samples);

/// Writes a traced job's spans to `<spans_dir>/<workload>.tsv`.
void write_spans(const RunOptions& options, const SpanLog& spans);

}  // namespace perfbench
