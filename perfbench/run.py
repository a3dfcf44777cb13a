#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload oversub_mega --seed 1 \
        --seconds 10 --trace 0

The last line of stdout is the result JSON. Other actions:

    python3 perfbench/run.py --write-reference [--workload NAME]
    python3 perfbench/run.py --spread --workload NAME [--runs 10]
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --selftest

The simulator and the perfbench binary are built from source on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TYPE = "RelWithDebInfo"
# Every workload the binary runs. BENCHMARK.json lists the ones steady
# enough to gate changes on (see README.md).
WORKLOADS = ["oversub_mega", "darknet_tiny", "campaign_mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def short_path(path):
    """Path relative to the checkout root when that is shorter (the
    daemon's AF_UNIX socket lives under the work directory)."""
    rel = os.path.relpath(path, ROOT)
    return rel if len(rel) < len(path) else path


def build(targets=("perfbench",)):
    """Configure once, then build incrementally. Returns the build dir,
    or None when the build fails."""
    bdir = os.path.join(build_root(), "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
        return None
    return bdir


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def expected_metrics(trace):
    """{name: unit} of the manifest's metrics for a traced or untraced run."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def manifest_metrics(metrics, want):
    """The manifest's metrics out of the binary's, each a positive,
    finite float in its manifest unit; None (with a log line) when one
    is missing or out of range. The binary also reports metrics that
    are zero on some workloads; those stay in its result file."""
    out = {}
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            log("perfbench: metric %s missing" % name)
            return None
        value = m["value"]
        if m["unit"] != unit:
            log("perfbench: metric %s in %s, BENCHMARK.json says %s"
                % (name, m["unit"], unit))
            return None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value <= 0):
            log("perfbench: metric %s = %r is not a positive number"
                % (name, value))
            return None
        out[name] = {"value": float(value), "unit": unit}
    return out


def binary_args():
    out = os.path.join(build_root(), "out")
    return ["--work-dir", short_path(os.path.join(out, "work")),
            "--results-dir", short_path(os.path.join(out, "results")),
            "--reference-dir", short_path(os.path.join(HERE, "reference"))]


def run_once(bdir, workload, seed, seconds, trace):
    """Run the binary once; returns the parsed result line or None."""
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + binary_args()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log("perfbench: binary exited with %d" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: binary printed no result")
        return None
    result = json.loads(lines[-1])
    metrics = manifest_metrics(result["metrics"], expected_metrics(trace))
    if metrics is None:
        return None
    result["metrics"] = metrics
    return result


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def compare(a, b, spec):
    """Compare two result files; 'incomparable' when fingerprints
    differ, else a pass/fail verdict per metric from the bounds."""
    if a["fingerprint"] != b["fingerprint"]:
        return "incomparable", []
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        return "incomparable", []
    rows = []
    verdict = "pass"
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, old in a["result"]["metrics"].items():
        new = b["result"]["metrics"].get(name)
        m = bounds.get(name)
        if new is None or m is None or not old["value"]:
            continue
        change = new["value"] / old["value"] - 1.0
        worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"]
        verdict = verdict if ok else "fail"
        rows.append((name, old["value"], new["value"], change,
                     "pass" if ok else "fail"))
    return verdict, rows


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            verdict, rows = compare(json.load(fa), json.load(fb),
                                    benchmark_spec())
        for name, old, new, change, v in rows:
            print("%-16s %14.6g %14.6g %+8.2f%%  %s"
                  % (name, old, new, 100 * change, v))
        print(verdict)
        return 0 if verdict != "fail" else 1

    if args.selftest:
        bdir = build(("perfbench_tests",))
        if bdir is None:
            return 1
        rc = subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode
        py = subprocess.run([sys.executable, "-m", "unittest", "discover",
                             "-s", os.path.join(HERE, "tests"), "-p",
                             "test_*.py"]).returncode
        return rc or py

    bdir = build()
    if bdir is None:
        log("perfbench: build failed")
        return 1

    if args.write_reference:
        names = [args.workload] if args.workload else WORKLOADS
        for name in names:
            cmd = [os.path.join(bdir, "perfbench"), "--write-reference",
                   "--workload", name] + binary_args()
            if subprocess.run(cmd, cwd=ROOT).returncode:
                return 1
        return 0

    if not args.workload:
        p.error("--workload is required")
    seconds = args.seconds or benchmark_spec()["run_seconds"]

    if args.spread:
        values = {}
        for i in range(args.runs):
            result = run_once(bdir, args.workload, args.seed + i, seconds,
                              args.trace)
            if result is None or not result["correct"]:
                log("perfbench: run with seed %d failed" % (args.seed + i))
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            print("%-24s median %14.6g  spread %6.2f%%  %s"
                  % (name, statistics.median(vals),
                     100 * quartile_spread(vals),
                     " ".join("%.6g" % v for v in vals)))
        return 0

    result = run_once(bdir, args.workload, args.seed, seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
