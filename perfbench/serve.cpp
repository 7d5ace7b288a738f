// serve_read and serve_write: one client thread driving a resident
// AdvisorService through handle_line, exactly as rimarket_serve's stdin
// loop does.  Latency is timed around each synchronous handle_line call,
// never through the asynchronous pool handoff (which would measure worker
// wake-ups, not the service).
//
// Traced runs re-execute each request's layer calls right after the
// service call — parse_request, SnapshotStore::lookup, the advice kernel,
// response formatting; for updates serialize/append/publish against probe
// copies of the journal and store — and record them as children of the
// handle_line span.  The re-executed read response must equal the
// service's byte for byte, so the stage split is of the same work.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.hpp"
#include "pricing/catalog.hpp"
#include "serve/advisor.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rimarket;

namespace {

constexpr std::size_t kAccounts = 1000;
constexpr std::size_t kReservationsPerAccount = 32;
/// serve_read: reads per job and in the untimed warm-up slice.
constexpr std::size_t kReadJob = 100000;
constexpr std::size_t kReadWarmup = 50000;
/// serve_write: update+read pairs per job and in the warm-up slice.
constexpr std::size_t kWriteJobPairs = 16000;
constexpr std::size_t kWriteWarmupPairs = 2000;
/// serve_write: ADVISE answers compared after reopening the journal.
constexpr std::size_t kRecoverySamples = 1000;
constexpr int kSetupRepeats = 5;

/// A request trace split into the initial per-account snapshot loads, the
/// untimed warm-up slice and the job (replayed once per timed job).
struct ServeTrace {
  std::vector<std::string> loads;
  std::vector<std::string> warmup;
  std::vector<std::string> job;
};

ServeTrace serve_trace(bool writes, std::uint64_t seed) {
  serve::RequestTraceSpec spec;
  spec.accounts = kAccounts;
  spec.reservations_per_account = kReservationsPerAccount;
  spec.breakeven_share = Fraction{0.25};
  // With as many updates as reads the generator puts one update before
  // every read but the first: a 1:1 mix.
  spec.requests = writes ? kWriteWarmupPairs + kWriteJobPairs : kReadWarmup + kReadJob;
  spec.updates = writes ? spec.requests : 0;
  std::vector<std::string> lines = serve::generate_request_trace(spec, seed);
  const std::size_t warmup = writes ? 2 * kWriteWarmupPairs : kReadWarmup;
  ServeTrace trace;
  const auto at = [&lines](std::size_t i) { return lines.begin() + static_cast<std::ptrdiff_t>(i); };
  trace.loads.assign(at(0), at(kAccounts));
  trace.warmup.assign(at(kAccounts), at(kAccounts + warmup));
  trace.job.assign(at(kAccounts + warmup), lines.end());
  return trace;
}

bool is_update(std::string_view line) { return line.starts_with("SNAPSHOT_UPDATE "); }
bool is_ok(std::string_view response) { return response.starts_with("OK "); }

/// Second token of a request line: the account.
std::string account_of(std::string_view line) {
  const std::size_t begin = line.find(' ') + 1;
  const std::size_t end = line.find(' ', begin);
  return std::string(line.substr(begin, end - begin));
}

/// The version an update's OK response acknowledged (0 when absent).
std::uint64_t acked_version(std::string_view response) {
  const std::size_t at = response.find("\"version\":");
  return at == std::string_view::npos
             ? 0
             : std::strtoull(response.data() + at + std::strlen("\"version\":"), nullptr, 10);
}

serve::ServiceConfig service_config(bool writes, const RunOptions& options) {
  serve::ServiceConfig config;
  config.threads = 1;  // the synchronous path never touches the pool
  if (writes) {
    config.journal_path = options.work_dir + "/serve.journal";
    config.journal_fsync = common::durable::FsyncMode::kAlways;
    config.journal_compact_bytes = std::size_t{1} << 20;
  }
  return config;
}

void remove_journal(const std::string& path) {
  std::error_code ignored;
  for (const char* suffix : {"", ".tmp", ".corrupt"}) {
    std::filesystem::remove(path + suffix, ignored);
  }
}

/// Service construction, the per-account snapshot loads and the warm-up
/// slice, repeated on a fresh service (and fresh journal) each time; the
/// last service is kept for the timed phase.
double timed_setup(bool writes, const RunOptions& options, const ServeTrace& trace,
                   std::unique_ptr<serve::AdvisorService>& service, Outcome& outcome) {
  const serve::ServiceConfig config = service_config(writes, options);
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    remove_journal(config.journal_path);
    const Clock::time_point begin = Clock::now();
    service = std::make_unique<serve::AdvisorService>(config);
    bool ok = !writes || service->journal_enabled();
    for (const auto* slice : {&trace.loads, &trace.warmup}) {
      for (const std::string& line : *slice) {
        ok = is_ok(service->handle_line(line)) && ok;
      }
    }
    times.push_back(seconds_since(begin));
    outcome.check(ok);
  }
  return median(times);
}

/// The read path composed from its layers: what handle_line answers for an
/// ADVISE/BREAKEVEN line, with a span per stage when `spans` is set.
std::string compose_read(const serve::SnapshotStore& store, std::string_view line,
                         SpanLog* spans, std::int32_t parent, std::uint64_t op) {
  const Clock::time_point t0 = Clock::now();
  std::string diagnostic;
  const std::optional<serve::Request> request = serve::parse_request(line, &diagnostic);
  const Clock::time_point t1 = Clock::now();
  if (!request) {
    return serve::error_response(diagnostic);
  }
  const std::shared_ptr<const serve::AccountSnapshot> snapshot = store.lookup(request->account);
  const serve::ReservationState* state =
      snapshot != nullptr && request->verb == serve::Verb::kAdvise
          ? snapshot->find(request->reservation)
          : nullptr;
  const Clock::time_point t2 = Clock::now();
  if (snapshot == nullptr ||
      (request->verb != serve::Verb::kBreakeven && state == nullptr)) {
    return serve::error_response("not a read of a loaded reservation");
  }
  std::string body;
  Clock::time_point t3;
  if (request->verb == serve::Verb::kAdvise) {
    const serve::ReservationAdvice advice = serve::advise_reservation(*snapshot, *state);
    t3 = Clock::now();
    body = advice.to_json();
  } else {
    const serve::BreakevenAdvice advice = serve::breakeven(*snapshot, request->fraction);
    t3 = Clock::now();
    body = advice.to_json();
  }
  std::string response = serve::ok_response(body);
  const Clock::time_point t4 = Clock::now();
  if (spans != nullptr) {
    spans->add("serve.protocol.parse.read", op, t0, t1, parent);
    spans->add("serve.snapshot.lookup", op, t1, t2, parent);
    spans->add("serve.advisor.kernel", op, t2, t3, parent);
    spans->add("serve.format", op, t3, t4, parent);
  }
  return response;
}

std::string responses_digest(serve::AdvisorService& service,
                             const std::vector<std::string>& job) {
  Digest digest;
  for (const std::string& line : job) {
    digest.update(service.handle_line(line));
  }
  return digest.hex();
}

std::string composed_digest(const serve::SnapshotStore& store,
                            const std::vector<std::string>& job) {
  Digest digest;
  for (const std::string& line : job) {
    digest.update(compose_read(store, line, nullptr, -1, 0));
  }
  return digest.hex();
}

/// Latency samples and digest of one untraced job.  The buffers are reused
/// from job to job, so the number of jobs a run fits does not change its
/// memory footprint.
struct JobSamples {
  double seconds = 0.0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::string digest;
};

void untraced_job(serve::AdvisorService& service, const std::vector<std::string>& job,
                  std::map<std::string, std::uint64_t>& acked, JobSamples& samples,
                  Outcome& outcome) {
  samples.read_us.clear();
  samples.write_us.clear();
  Digest digest;
  const Clock::time_point begin = Clock::now();
  for (const std::string& line : job) {
    const Clock::time_point t0 = Clock::now();
    std::string response = service.handle_line(line);
    const Clock::time_point t1 = Clock::now();
    const bool ok = is_ok(response);
    outcome.check(ok);
    if (is_update(line)) {
      samples.write_us.push_back(micros(t0, t1));
      if (ok) {
        acked[account_of(line)] = acked_version(response);
      }
    } else {
      samples.read_us.push_back(micros(t0, t1));
      digest.update(response);
    }
  }
  samples.seconds = seconds_since(begin);
  samples.digest = digest.hex();
}

/// Each job's p50 and p99, reported as their medians over the run: every
/// job has the same size, so the per-job tails are equally well supported.
class JobPercentiles {
 public:
  void add(std::vector<double>& samples, Outcome& outcome) {
    const auto mid = percentile(samples, 0.50);
    const auto tail = percentile(samples, 0.99);
    if (!mid || !tail) {
      outcome.check(false);
      return;
    }
    p50_.push_back(*mid);
    p99_.push_back(*tail);
  }
  void report(Outcome& outcome, const std::string& name) const {
    outcome.set(name + "_p50_us", median(p50_), "us");
    outcome.set(name + "_p99_us", median(p99_), "us");
  }

 private:
  std::vector<double> p50_;
  std::vector<double> p99_;
};

}  // namespace

std::string serve_reference_digest(const std::string& workload, std::uint64_t seed) {
  if (workload != "serve_read") {
    return {};
  }
  const ServeTrace trace = serve_trace(false, seed);
  serve::AdvisorService service(serve::ServiceConfig{});
  for (const std::string& line : trace.loads) {
    service.handle_line(line);
  }
  const std::string live = responses_digest(service, trace.job);
  return live == composed_digest(service.snapshots(), trace.job) ? live : std::string();
}

void run_serve_read(const WorkloadRun& run) {
  const RunOptions& options = run.options;
  Outcome& outcome = run.outcome;
  const ServeTrace trace = serve_trace(false, options.seed);
  std::unique_ptr<serve::AdvisorService> service;
  const double setup_s = timed_setup(false, options, trace, service, outcome);
  const std::string expected = run.expected_digest.empty()
                                   ? composed_digest(service->snapshots(), trace.job)
                                   : run.expected_digest;

  std::map<std::string, std::uint64_t> unused_acks;
  std::vector<double> job_s, traced_s;
  JobSamples job;
  job.read_us.reserve(trace.job.size());
  JobPercentiles read_latency;
  std::vector<double> parse_us, lookup_us, kernel_us, format_us, self_us;
  std::size_t clamped = 0;
  SpanLog spans;
  const Clock::time_point phase = Clock::now();
  do {
    untraced_job(*service, trace.job, unused_acks, job, outcome);
    outcome.check(job.digest == expected);
    job_s.push_back(job.seconds);
    read_latency.add(job.read_us, outcome);
    if (!options.trace) {
      continue;
    }
    spans = SpanLog();
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < trace.job.size(); ++i) {
      const std::string& line = trace.job[i];
      const Clock::time_point t0 = Clock::now();
      const std::string response = service->handle_line(line);
      const std::int32_t parent = spans.add("serve.handle_line", i, t0, Clock::now());
      outcome.check(is_ok(response) &&
                    compose_read(service->snapshots(), line, &spans, parent, i) == response);
    }
    traced_s.push_back(seconds_since(begin));
    const auto append = [&spans](std::vector<double>& out, std::string_view name) {
      const std::vector<double> values = spans.micros_of(name);
      out.insert(out.end(), values.begin(), values.end());
    };
    append(parse_us, "serve.protocol.parse.read");
    append(lookup_us, "serve.snapshot.lookup");
    append(kernel_us, "serve.advisor.kernel");
    append(format_us, "serve.format");
    const std::vector<double> self = spans.self_micros_of("serve.handle_line", &clamped);
    self_us.insert(self_us.end(), self.begin(), self.end());
  } while (seconds_since(phase) < options.seconds);
  outcome.job_seconds = job_s;

  if (!options.trace) {
    outcome.set("setup_s", setup_s, "s");
    outcome.set("job_s", median(job_s), "s");
    return;
  }
  read_latency.report(outcome, "serve.read");
  report_us(outcome, "serve.protocol.parse_us.read", std::move(parse_us));
  report_us(outcome, "serve.snapshot.lookup_us", std::move(lookup_us));
  report_us(outcome, "serve.advisor.kernel_us", std::move(kernel_us));
  report_us(outcome, "serve.format_us", std::move(format_us));
  report_us(outcome, "serve.handle_line_self_us", std::move(self_us));
  outcome.set("trace.self_time_clamped", static_cast<double>(clamped), "count");
  outcome.set("trace.overhead_s", median(traced_s) - median(job_s), "s");
  write_spans(options, spans);
}

void run_serve_write(const WorkloadRun& run) {
  const RunOptions& options = run.options;
  Outcome& outcome = run.outcome;
  const ServeTrace trace = serve_trace(true, options.seed);
  std::unique_ptr<serve::AdvisorService> service;
  const double setup_s = timed_setup(true, options, trace, service, outcome);
  const pricing::PricingCatalog& catalog = pricing::PricingCatalog::builtin();

  std::map<std::string, std::uint64_t> acked;
  for (const auto* slice : {&trace.loads, &trace.warmup}) {
    for (const std::string& line : *slice) {
      if (is_update(line)) {
        ++acked[account_of(line)];  // setup acked every update, in order
      }
    }
  }
  std::vector<double> job_s, traced_s, compactions;
  JobSamples job;
  job.read_us.reserve(trace.job.size() / 2 + 1);
  job.write_us.reserve(trace.job.size() / 2 + 1);
  JobPercentiles read_latency, write_latency;
  std::vector<double> parse_us, serialize_us, append_us, publish_us;
  std::uint64_t journal_bytes = 0;
  std::uint64_t updates = 0;
  std::string record;
  SpanLog spans;
  const std::string probe_path = options.work_dir + "/probe.journal";
  const Clock::time_point phase = Clock::now();
  do {
    const double compactions_before =
        service->metrics().get("serve.journal.compactions").value_or(0.0);
    untraced_job(*service, trace.job, acked, job, outcome);
    compactions.push_back(service->metrics().get("serve.journal.compactions").value_or(0.0) -
                          compactions_before);
    job_s.push_back(job.seconds);
    read_latency.add(job.read_us, outcome);
    write_latency.add(job.write_us, outcome);
    if (!options.trace) {
      continue;
    }
    // Probe journal and store: the write path's layers on their own, fed
    // the same updates, so their spans are not the service's internals.
    remove_journal(probe_path);
    serve::SnapshotJournal journal;
    serve::SnapshotStore store;
    serve::JournalConfig journal_config;
    journal_config.path = probe_path;
    journal_config.fsync = common::durable::FsyncMode::kAlways;
    journal_config.compact_threshold_bytes = 0;
    outcome.check(journal.open(
        journal_config, [](serve::AccountSnapshot&&) { return serve::PublishOutcome::kPublished; },
        nullptr));
    std::map<std::string, std::uint64_t> versions;
    spans = SpanLog();
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < trace.job.size(); ++i) {
      const std::string& line = trace.job[i];
      const Clock::time_point t0 = Clock::now();
      const std::string response = service->handle_line(line);
      const Clock::time_point t1 = Clock::now();
      outcome.check(is_ok(response));
      if (is_update(line) && is_ok(response)) {
        acked[account_of(line)] = acked_version(response);
      }
      if (!is_update(line)) {
        spans.add("serve.handle_line.read", i, t0, t1);
        continue;
      }
      const std::int32_t parent = spans.add("serve.handle_line.snapshot_update", i, t0, t1);
      std::string diagnostic;
      const Clock::time_point p0 = Clock::now();
      const std::optional<serve::Request> request = serve::parse_request(line, &diagnostic);
      const Clock::time_point t2 = Clock::now();
      const auto type = request ? catalog.find(request->snapshot.instance) : std::nullopt;
      if (!type) {
        outcome.check(false);
        continue;
      }
      serve::AccountSnapshot snapshot;
      snapshot.account = request->account;
      snapshot.type = *type;
      snapshot.selling_discount = request->snapshot.selling_discount;
      snapshot.now = request->snapshot.now;
      snapshot.reservations = request->snapshot.reservations;
      snapshot.version = ++versions[request->account];
      const Clock::time_point t3 = Clock::now();
      record = serve::SnapshotJournal::serialize_snapshot(snapshot);
      const Clock::time_point t4 = Clock::now();
      outcome.check(journal.append_update(snapshot));
      const Clock::time_point t5 = Clock::now();
      store.publish_at(std::move(snapshot), versions[request->account]);
      const Clock::time_point t6 = Clock::now();
      spans.add("serve.protocol.parse.snapshot_update", i, p0, t2, parent);
      spans.add("serve.journal.serialize", i, t3, t4, parent);
      spans.add("serve.journal.append", i, t4, t5, parent);
      spans.add("serve.snapshot.publish", i, t5, t6, parent);
      journal_bytes += record.size() + 8;  // payload plus the length+CRC frame
      ++updates;
    }
    traced_s.push_back(seconds_since(begin));
    const auto append = [&spans](std::vector<double>& out, std::string_view name) {
      const std::vector<double> values = spans.micros_of(name);
      out.insert(out.end(), values.begin(), values.end());
    };
    append(parse_us, "serve.protocol.parse.snapshot_update");
    append(serialize_us, "serve.journal.serialize");
    append(append_us, "serve.journal.append");
    append(publish_us, "serve.snapshot.publish");
  } while (seconds_since(phase) < options.seconds);
  outcome.job_seconds = job_s;

  if (options.trace) {
    read_latency.report(outcome, "serve.read");
    write_latency.report(outcome, "serve.write");
    report_us(outcome, "serve.protocol.parse_us.snapshot_update", std::move(parse_us));
    report_us(outcome, "serve.journal.serialize_us", std::move(serialize_us));
    report_us(outcome, "serve.journal.append_us", std::move(append_us));
    report_us(outcome, "serve.snapshot.publish_us", std::move(publish_us));
    outcome.set("serve.journal.bytes_per_update",
                static_cast<double>(journal_bytes) / static_cast<double>(updates), "bytes");
    outcome.set("serve.journal.compactions", median(compactions), "count");
    outcome.set("trace.overhead_s", median(traced_s) - median(job_s), "s");

    // AppendLog::append + sync of one journal-sized record, alone.
    const std::string log_path = options.work_dir + "/probe.log";
    remove_journal(log_path);
    std::vector<double> sync_us;
    {
      common::durable::AppendLog log;
      outcome.check(log.open(log_path, common::durable::FsyncMode::kNever));
      constexpr int kSyncSamples = 2000;
      for (int i = 0; i < kSyncSamples; ++i) {
        const Clock::time_point t0 = Clock::now();
        const bool ok = log.append(record) && log.sync();
        sync_us.push_back(micros(t0, Clock::now()));
        if (!ok) {
          outcome.check(false);
          break;
        }
      }
    }
    report_us(outcome, "common.durable.append_sync_us", std::move(sync_us));

    // Compaction of the live store, through a probe journal.
    const std::string compact_path = options.work_dir + "/probe.compact";
    remove_journal(compact_path);
    serve::SnapshotJournal compactor;
    serve::JournalConfig compact_config;
    compact_config.path = compact_path;
    compact_config.fsync = common::durable::FsyncMode::kAlways;
    compact_config.compact_threshold_bytes = 0;
    outcome.check(compactor.open(
        compact_config,
        [](serve::AccountSnapshot&&) { return serve::PublishOutcome::kPublished; }, nullptr));
    const auto snapshots = service->snapshots().all();
    std::vector<double> compact_ms;
    constexpr int kCompactSamples = 21;
    for (int i = 0; i < kCompactSamples; ++i) {
      const Clock::time_point t0 = Clock::now();
      outcome.check(compactor.compact(snapshots));
      compact_ms.push_back(micros(t0, Clock::now()) / 1e3);
    }
    outcome.set("serve.journal.compact_ms", median(compact_ms), "ms");
    write_spans(options, spans);
  } else {
    outcome.set("setup_s", setup_s, "s");
    outcome.set("job_s", median(job_s), "s");
  }

  // Durability gate, outside the timed phase: a fresh service reopened on
  // the same journal recovers every account at its last acked version and
  // answers sampled ADVISE lines byte-equal to the live service.
  std::vector<std::string> samples, live_answers;
  for (const std::string& line : trace.job) {
    if (line.starts_with("ADVISE ")) {
      samples.push_back(line);
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / kRecoverySamples);
  for (std::size_t i = 0; i < samples.size() / stride; ++i) {
    samples[i] = samples[i * stride];
    live_answers.push_back(service->handle_line(samples[i]));
  }
  samples.resize(live_answers.size());
  const serve::ServiceConfig config = service->config();
  service.reset();
  serve::AdvisorService reopened(config);
  outcome.check(reopened.journal_enabled());
  for (const auto& [account, version] : acked) {
    const auto snapshot = reopened.snapshots().lookup(account);
    outcome.check(snapshot != nullptr && snapshot->version == version);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string answer = reopened.handle_line(samples[i]);
    outcome.check(is_ok(answer) && answer == live_answers[i]);
  }
}

}  // namespace perfbench
