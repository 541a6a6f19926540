#!/usr/bin/env python3
"""Builds rdv's benchmark harness from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One benchmark run. The last stdout line is the JSON result.
  python3 perfbench/run.py --self-test
      Every workload at a tiny size: checks pass, metric and workload
      names match BENCHMARK.json, and --seed changes the seeded inputs.
  python3 perfbench/run.py --steadiness [--runs N] [--seed N]
      Repeated runs with alternating workload order and changing seeds;
      prints median and quartiles per end-to-end metric and flags every
      spread (quartile distance / median) above the metric's bound.

The build goes to .bench_build/ (CMake, Release); the first run builds,
later runs only re-check it. Scratch stores and span files also live
there and are removed or overwritten by the next run.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
HARNESS = BUILD_DIR / "rdv_perfbench"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rdv sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    steps = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def harness(args, capture=False):
    """Runs the harness with its scratch directory under the build dir."""
    work = BUILD_DIR / "work" / str(os.getpid())
    cmd = [str(HARNESS), *args, "--work-dir", str(work)]
    try:
        if capture:
            return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=175)
        return subprocess.run(cmd, timeout=175)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace == 1:
        spans = BUILD_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--spans-out",
                 str(spans / f"{opts.workload}-seed{opts.seed}.json")]
    return harness(args).returncode


def self_test():
    spec = load_spec()
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    listed = harness(["--list"], capture=True).stdout.split()
    names = [w["name"] for w in spec["workloads"]]
    check(listed == names, f"workloads {names} match the harness {listed}")
    for name in names + [m["name"] for m in spec["end_to_end"]] + \
            [m["name"] for m in spec["per_layer"]]:
        check(bool(NAME_RE.match(name)), f"name {name!r} is well formed")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in names:
        for trace in (0, 1):
            proc = harness(["--workload", name, "--seed", "1", "--seconds",
                            "0.5", "--trace", str(trace), "--size", "tiny"],
                           capture=True)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            what = f"{name} --trace {trace}"
            check(result is not None, f"{what} printed a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{what} result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{what} checks pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{what} emits exactly the BENCHMARK.json metrics")
        digests = {}
        for seed in (1, 2, 1):
            proc = harness(["--workload", name, "--seed", str(seed),
                            "--seconds", "1", "--trace", "0", "--size",
                            "tiny", "--inputs-only"], capture=True)
            found = re.search(r"inputs_digest=(\w+)", proc.stdout)
            digests.setdefault(seed, []).append(found.group(1) if found
                                                else None)
        check(digests[1][0] is not None and digests[1][0] == digests[1][1],
              f"{name} inputs are a function of the seed")
        seeded = name != "qhat_lowerbound"
        check((digests[1][0] != digests[2][0]) == seeded,
              f"{name} inputs {'change' if seeded else 'do not change'} "
              "with the seed")
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def steadiness(opts):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            proc = harness(["--workload", w, "--seed", str(opts.seed + r),
                            "--seconds", str(spec["run_seconds"]),
                            "--trace", "0"], capture=True)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{w} run {r}: no correct result", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"{w} run {r} seed {opts.seed + r}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)
    flagged = 0
    print(f"{'workload':16} {'metric':12} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = ""
            if spread > bound:
                flag, flagged = "OVER BOUND", flagged + 1
            elif spread > bound / 3:
                flag = "above bound/3"
            print(f"{w:16} {name:12} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f} {flag}")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()
    build()
    if opts.self_test:
        return self_test()
    if opts.steadiness:
        return steadiness(opts)
    if not opts.workload:
        fail("--workload is required")
    return run_once(opts)


if __name__ == "__main__":
    sys.exit(main())
