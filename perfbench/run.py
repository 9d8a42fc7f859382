#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds perfbench/ (a CMake package that compiles the libraries from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, and relays its output. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload loaded-run --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("loaded-run", "analyze-cold", "campaign-short")
DIGESTS = os.path.join(HERE, "reference_digests.txt")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        die("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def run_bench(exe, args):
    """Run the binary in its own process group; returns (code, stdout)."""
    work_dir = os.path.join(build_root(), "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe] + args + ["--digests", DIGESTS, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray forked children
        except ProcessLookupError:
            pass
    return proc.returncode, out


def result_line(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(exe):
    """Tiny pass of every workload: every declared metric is printed with
    its unit, a clean pass has no failure, and a wrong digest and a
    throwing operation are both counted as failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, out = run_bench(exe, base + ["--trace", trace])
            result = result_line(out)
            if code != 0 or result is None:
                problems.append("%s trace=%s: no result line" % (workload, trace))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%s: clean pass failed:\n%s" % (workload, trace, out))
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s trace=%s: metric %s missing or wrong unit"
                                    % (workload, trace, metric["name"]))
                if metric["name"] not in out.split("{")[0]:
                    problems.append("%s: %s not in the table" % (workload, metric["name"]))
            if "failed_ratio" not in out:
                problems.append("%s: failed_ratio not printed" % workload)
        code, out = run_bench(exe, base + ["--trace", "0", "--inject-wrong-digest",
                                           "--inject-throw"])
        result = result_line(out)
        # analyze-cold prints its envelope digest but does not enforce it.
        expected = 1 if workload == "analyze-cold" else 2
        if result is None or result["failed"] != expected or result["correct"]:
            problems.append("%s: injected failures not counted (want %d):\n%s"
                            % (workload, expected, out))
        print("self-test %s: %s" % (workload, "ok" if not problems else "see below"))
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true",
                        help="print the reference digests instead of checking them")
    args = parser.parse_args()
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe))
    if args.record_digests:
        for workload in ("loaded-run", "campaign-short"):
            for tiny in ([], ["--tiny"]):
                _, out = run_bench(exe, ["--workload", workload, "--record-digests"] + tiny)
                sys.stdout.write(out)
        return
    if args.workload is None:
        die("--workload is required")
    if args.seed < 0:
        die("--seed must not be negative")
    code, out = run_bench(exe, ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", repr(args.seconds), "--trace", args.trace])
    if code != 0 or result_line(out) is None:
        sys.stderr.write(out)
        die("benchmark run failed (exit %d)" % code)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
