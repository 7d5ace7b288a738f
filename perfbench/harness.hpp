// Shared pieces of the benchmark program: run options, the result record,
// timing, digests, and the statistics helpers every workload reports
// through (percentiles with the ten-samples-beyond rule, medians, clamped
// self-time subtraction).
//
// The benchmark drives rimarket from outside: it only calls the public
// functions of each layer and times those calls itself.  Nothing in src/
// knows it is being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

inline double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

/// One benchmark invocation, as parsed from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; jobs repeat until it has elapsed.
  double seconds = 10.0;
  /// false: end-to-end metrics with tracing off.  true: per-layer metrics.
  bool trace = false;
  /// Memory-backed directory for every journal, checkpoint and durable-I/O
  /// probe file (see run.py); never the disk the checkout lives on.
  std::string work_dir;
  /// Where a traced run writes its span log once measurement is over.
  std::string spans_dir;
  /// Pool workers for sweeps (the machine's usable CPU count).
  std::size_t threads = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the last stdout line is built from this.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Wall time of every timed job, for the stderr log.
  std::vector<double> job_seconds;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one checked operation; a failed check also marks the run
  /// incorrect.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// 64-bit FNV-1a over a byte stream: the digest every correctness gate
/// compares (rendered panels, sweep reports, response streams).
class Digest {
 public:
  void update(std::string_view bytes);
  void update_u64(std::uint64_t value);
  /// Exact bit pattern of a double, so a digest match means byte identity.
  void update_double(double value);
  std::uint64_t value() const { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Minimum number of samples a reported percentile must have above it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (q in (0,1)) of `samples`, which it sorts in
/// place.  Returns nullopt when fewer than kMinSamplesBeyond samples lie
/// above the chosen rank: such a tail is one or two outliers, not a
/// percentile.
std::optional<double> percentile(std::vector<double>& samples, double q);

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty list.
double median(std::vector<double> values);

/// A layer's self time: its total minus the time its children account
/// for.  Timer noise can make the children sum past the total; the value is
/// then clamped to zero and `clamped` is set so the run can report it.
struct SelfTime {
  double value = 0.0;
  bool clamped = false;
};
SelfTime self_time(double total, double children);

/// One traced interval.  Spans of one operation share `op`; `parent` is the
/// index of the enclosing span in the same log, or -1.  Names are string
/// literals owned by the workload code.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span log: spans are appended while a traced job runs and
/// written out once, after measurement.  Not thread-safe; parallel passes
/// keep one log per task and merge them afterwards.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  /// Records a measured interval and returns its index (a parent handle).
  std::int32_t add(const char* name, std::uint64_t op, Clock::time_point begin,
                   Clock::time_point end, std::int32_t parent = -1);
  /// Moves the end of an already-recorded span (a parent opened before its
  /// children were timed).
  void finish(std::int32_t index, Clock::time_point end);
  /// Appends `other`'s spans, re-basing their parent indices.
  void merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations of every span called `name`, in seconds.
  double total_seconds(std::string_view name) const;
  /// Durations of every span called `name`, in microseconds.
  std::vector<double> micros_of(std::string_view name) const;
  /// Self time of every span called `name` (duration minus its direct
  /// children's), in microseconds; clamped values are counted in
  /// `*clamped`.
  std::vector<double> self_micros_of(std::string_view name, std::size_t* clamped) const;

  /// Tab-separated dump (name, op, parent, start_ns, end_ns), one span per
  /// line, times relative to the log's origin.  False when the file cannot
  /// be written.
  bool write_tsv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Microseconds of a steady_clock interval.
inline double micros(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

}  // namespace perfbench
