// perfbench_workload: runs one benchmark workload and prints two lines on
// stdout — `ENV {...}` (where and how the numbers were taken) and
// `RESULT {...}` (correct/attempted/failed plus every metric measured).
// run.py turns them into the benchmark's result line; see README.md.
//
//   perfbench_workload --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                      --work-dir=<dir> --spans-dir=<dir> [--mount-tmpfs]
//                      [--expect-digest=<hex>]
//   perfbench_workload --reference-digest --workload=<name> --seed=<n>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr long kTmpfsMagic = 0x01021994;

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

bool is_tmpfs(const std::string& dir) {
  struct statfs info {};
  return statfs(dir.c_str(), &info) == 0 && static_cast<long>(info.f_type) == kTmpfsMagic;
}

/// Mounts a private tmpfs over `dir`.  Only possible inside a fresh mount
/// namespace (run.py starts perfbench_workload under `unshare`), where the mount
/// disappears with the process.
void mount_tmpfs(const std::string& dir) {
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0 ||
      mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=512m,mode=0700") != 0) {
    std::fprintf(stderr, "perfbench: cannot mount tmpfs on %s: %s\n", dir.c_str(),
                 std::strerror(errno));
  }
}

bool flag_value(std::string_view arg, std::string_view name, std::string* value) {
  const std::string prefix = "--" + std::string(name) + "=";
  if (!arg.starts_with(prefix)) {
    return false;
  }
  *value = std::string(arg.substr(prefix.size()));
  return true;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench_workload: %s\n", message);
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string expected, seed = "1", seconds = "10", trace = "0";
  bool mount = false;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--mount-tmpfs") {
      mount = true;
    } else if (arg == "--reference-digest") {
      reference = true;
    } else if (!flag_value(arg, "workload", &options.workload) &&
               !flag_value(arg, "seed", &seed) && !flag_value(arg, "seconds", &seconds) &&
               !flag_value(arg, "trace", &trace) &&
               !flag_value(arg, "work-dir", &options.work_dir) &&
               !flag_value(arg, "spans-dir", &options.spans_dir) &&
               !flag_value(arg, "expect-digest", &expected)) {
      return usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') {
    return usage("--seed must be a non-negative integer");
  }
  options.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(options.seconds > 0.0)) {
    return usage("--seconds must be a positive number");
  }
  if (trace != "0" && trace != "1") {
    return usage("--trace must be 0 or 1");
  }
  options.trace = trace == "1";
  options.threads = usable_cpus();

  void (*workload)(const WorkloadRun&) = nullptr;
  if (options.workload == "paper_fig3") {
    workload = run_paper_fig3;
  } else if (options.workload == "sweep_ckpt") {
    workload = run_sweep_ckpt;
  } else if (options.workload == "serve_read") {
    workload = run_serve_read;
  } else if (options.workload == "serve_write") {
    workload = run_serve_write;
  } else {
    return usage("--workload must be paper_fig3, sweep_ckpt, serve_read or serve_write");
  }

  try {
    if (reference) {
      const std::string digest =
          reference_digest(options.workload, options.seed, options.threads);
      if (digest.empty()) {
        std::fprintf(stderr, "perfbench: no agreed reference digest for %s\n",
                     options.workload.c_str());
        return 1;
      }
      std::printf("%s\n", digest.c_str());
      return 0;
    }
    if (options.work_dir.empty() || options.spans_dir.empty()) {
      return usage("--work-dir and --spans-dir are required");
    }
    std::filesystem::create_directories(options.work_dir);
    std::filesystem::create_directories(options.spans_dir);
    if (mount) {
      mount_tmpfs(options.work_dir);
    }
    const bool tmpfs = is_tmpfs(options.work_dir);
    std::printf(
        "ENV {\"build_type\":%s,\"compiler\":%s,\"durable_dir\":%s,\"durable_fs\":%s,"
        "\"nproc\":%zu,\"seconds\":%g,\"seed\":%llu,\"threads\":%zu,\"trace\":%d,"
        "\"workload\":%s}\n",
        json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
        json_string(options.work_dir).c_str(), tmpfs ? "\"tmpfs\"" : "\"disk\"",
        options.threads, options.seconds, static_cast<unsigned long long>(options.seed),
        options.threads, options.trace ? 1 : 0, json_string(options.workload).c_str());
    std::fflush(stdout);

    Outcome outcome;
    workload(WorkloadRun{options, expected, outcome});

    std::string jobs;
    for (const double job : outcome.job_seconds) {
      jobs += " " + std::to_string(job);
    }
    std::fprintf(stderr, "perfbench: %s job seconds:%s\n", options.workload.c_str(), jobs.c_str());
    if (!options.trace) {
      rusage usage_info{};
      getrusage(RUSAGE_SELF, &usage_info);
      outcome.set("peak_rss_mb", static_cast<double>(usage_info.ru_maxrss) / 1024.0, "MB");
      outcome.set("ok_ratio",
                  outcome.attempted == 0
                      ? 0.0
                      : static_cast<double>(outcome.attempted - outcome.failed) /
                            static_cast<double>(outcome.attempted),
                  "ratio");
    }
    std::string metrics;
    for (const auto& [name, metric] : outcome.metrics) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metric.value);
      metrics += (metrics.empty() ? "" : ",") + json_string(name) + ":{\"unit\":" +
                 json_string(metric.unit) + ",\"value\":" + value + "}";
    }
    std::printf("RESULT {\"attempted\":%llu,\"correct\":%s,\"failed\":%llu,\"metrics\":{%s}}\n",
                static_cast<unsigned long long>(outcome.attempted),
                outcome.correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
}
