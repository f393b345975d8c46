#!/usr/bin/env python3
"""Checks behind the benchmark's ctest entries (ctest --test-dir build-bench).

  check.py smoke   every workload's smoke run passes its output checks
  check.py traced  the traced binary reproduces the untraced outcome exactly
  check.py names   BENCHMARK.json declares exactly what the binaries print

Each takes --bin-dir (the build directory holding papaya_bench and
papaya_bench_traced) and --benchmark-json (the file at the repository root).
"""

import argparse
import json
import re
import subprocess
import sys


def run(binary, workload, *extra):
    """Runs one smoke-size workload; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--smoke", *extra],
        capture_output=True, text=True, timeout=240, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def outcome(lines):
    return next(line for line in lines if line.startswith("outcome "))


def metric_lines(lines):
    """name -> (unit, better) for every metric line printed."""
    found = {}
    for line in lines:
        m = re.match(r"metric (\S+?)=\S+ unit=(\S+) better=(\S+) ", line)
        if m:
            found[m.group(1)] = (m.group(2), m.group(3))
    return found


def check_smoke(bench, args):
    failures = []
    for w in bench["workloads"]:
        code, lines = run(args.untraced, w["name"])
        if code != 0 or not result(lines)["correct"]:
            failures.append(f"{w['name']}: smoke run failed (exit {code})")
    return failures


def check_traced(bench, args):
    failures = []
    for w in bench["workloads"]:
        code, plain = run(args.untraced, w["name"])
        tcode, traced = run(args.traced, w["name"], "--trace", "1")
        if code != 0 or tcode != 0:
            failures.append(f"{w['name']}: exit {code} untraced, {tcode} traced")
            continue
        if outcome(plain) != outcome(traced):
            failures.append(f"{w['name']}: outcomes differ\n  untraced: "
                            f"{outcome(plain)}\n  traced:   {outcome(traced)}")
    return failures


def check_names(bench, args):
    failures = []
    usage = subprocess.run([args.untraced, "--workload", "?"],
                           capture_output=True, text=True, check=False).stderr
    listed = re.search(r"^workloads: (.*)$", usage, re.M).group(1).split()
    declared = [w["name"] for w in bench["workloads"]]
    if listed != declared:
        failures.append(f"workloads: binary has {listed}, json has {declared}")
    for w in declared:
        for binary, extra, key in ((args.untraced, (), "end_to_end"),
                                   (args.traced, ("--trace", "1"), "per_layer")):
            _, lines = run(binary, w, *extra)
            want = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
            got = result(lines)["metrics"]
            if set(got) != set(want):
                failures.append(f"{w} {key}: binary prints {sorted(got)}, "
                                f"json declares {sorted(want)}")
                continue
            printed = metric_lines(lines)
            for name, (unit, better) in want.items():
                if got[name]["unit"] != unit or printed.get(name) != (unit, better):
                    failures.append(f"{w} {name}: json says unit={unit} "
                                    f"better={better}, binary says "
                                    f"{printed.get(name)}")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("check", choices=["smoke", "traced", "names"])
    parser.add_argument("--bin-dir", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    args.untraced = f"{args.bin_dir}/papaya_bench"
    args.traced = f"{args.bin_dir}/papaya_bench_traced"
    with open(args.benchmark_json, encoding="utf-8") as f:
        bench = json.load(f)
    failures = {"smoke": check_smoke, "traced": check_traced,
                "names": check_names}[args.check](bench, args)
    for failure in failures:
        print("FAIL", failure)
    print(f"{args.check}: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
