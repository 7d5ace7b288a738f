#!/usr/bin/env python3
"""rimarket benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the library from src/ together
with the benchmark program perfbench_workload (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build), runs one workload and prints, as the last stdout line, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
its per_layer list, where a layer the workload does not exercise reads 0
(perfbench/layers.json says which workloads exercise which layer).  The
line before it, `ENV {...}`, records where the numbers were taken.

Journals, checkpoints and durable-I/O probes live in .bench_run/durable,
on a private tmpfs perfbench_workload mounts inside its own user and mount
namespace (via `unshare`), so fsync timings are the program's, not a shared
disk's.  The mount disappears with that process.

Other modes:
    --self-test          build and run the helper tests, and check that
                         BENCHMARK.json and layers.json agree
    --write-digests A-B[,C..]  recompute perfbench/digests.json for those seeds
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_fig3", "sweep_ckpt", "serve_read", "serve_write")
DIGEST_WORKLOADS = ("paper_fig3", "sweep_ckpt", "serve_read")
WORKLOAD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                      "--target"] + targets)
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
            if result.returncode != 0:
                fail("build step failed: " + " ".join(step))
    return build_dir


def namespace_prefix():
    """`unshare` arguments that give perfbench_workload its own mount
    namespace, or [] when the system does not allow it (it then records
    durable_fs = disk)."""
    unshare = shutil.which("unshare")
    if unshare is None:
        return []
    prefix = [unshare, "--user", "--map-root-user", "--mount"]
    probe = subprocess.run(prefix + ["true"], capture_output=True, check=False)
    return prefix if probe.returncode == 0 else []


def parse_workload_output(stdout):
    env = result = None
    for line in stdout.splitlines():
        if line.startswith("ENV "):
            env = line
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return env, result


def select_metrics(result, workload, trace):
    """Maps perfbench_workload's metrics onto BENCHMARK.json's list for this mode."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    measured = dict(result["metrics"])
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        exercised = not trace or workload in layers[name]["workloads"]
        if name not in measured:
            if exercised:
                fail("%s did not report %s" % (workload, name))
            metrics[name] = {"value": 0, "unit": unit}
            continue
        metric = measured.pop(name)
        if not exercised:
            fail("%s reported %s, which layers.json does not assign to it" % (workload, name))
        if metric["unit"] != unit:
            fail("%s: unit %s, BENCHMARK.json says %s" % (name, metric["unit"], unit))
        metrics[name] = {"value": metric["value"], "unit": unit}
    if measured:
        fail("undeclared metrics: " + ", ".join(sorted(measured)))
    return metrics


def run_workload(args):
    build_dir = build(["perfbench_workload"])
    digests = load_json(os.path.join(HERE, "digests.json"))
    run_dir = os.path.join(ROOT, ".bench_run")
    prefix = namespace_prefix()
    command = prefix + [
        os.path.join(build_dir, "perfbench_workload"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=" + os.path.join(run_dir, "durable"),
        "--spans-dir=" + os.path.join(run_dir, "spans"),
    ]
    if prefix:
        command.append("--mount-tmpfs")
    expected = digests.get(args.workload, {}).get(str(args.seed))
    if expected:
        command.append("--expect-digest=" + expected)
    try:
        program = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                timeout=WORKLOAD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench_workload exceeded %d s" % WORKLOAD_TIMEOUT_S)
    if program.returncode != 0:
        fail("perfbench_workload exited with %d" % program.returncode)
    env, result = parse_workload_output(program.stdout)
    if env is None or result is None:
        fail("perfbench_workload printed no result")
    print(env)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(result, args.workload, args.trace),
    }), flush=True)


def self_test():
    build_dir = build(["perfbench_selftest"])
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    names = [entry["name"] for entry in bench["per_layer"]]
    if sorted(names) != sorted(layers):
        fail("BENCHMARK.json per_layer and layers.json list different metrics")
    for name, layer in layers.items():
        if not set(layer["workloads"]) <= set(WORKLOADS) or not layer["moves"]:
            fail("layers.json entry %s is malformed" % name)
    tests = subprocess.run([os.path.join(build_dir, "perfbench_selftest")], check=False)
    sys.exit(tests.returncode)


def parse_seeds(text):
    """'0-3,2018' -> [0, 1, 2, 3, 2018]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def write_digests(seeds):
    build_dir = build(["perfbench_workload"])
    table = {workload: {} for workload in DIGEST_WORKLOADS}
    for workload in DIGEST_WORKLOADS:
        for seed in parse_seeds(seeds):
            out = subprocess.run(
                [os.path.join(build_dir, "perfbench_workload"), "--reference-digest",
                 "--workload=" + workload, "--seed=%d" % seed],
                stdout=subprocess.PIPE, text=True, check=False)
            if out.returncode != 0:
                fail("no reference digest for %s seed %d" % (workload, seed))
            table[workload][str(seed)] = out.stdout.strip()
            print(workload, seed, table[workload][str(seed)], file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", metavar="A-B[,C..]")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.write_digests:
        write_digests(args.write_digests)
    elif args.workload is None:
        fail("--workload is required")
    elif args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
