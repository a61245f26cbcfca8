"""A/A stability check: does the ledger agree with itself on one commit?

    python3 benchmarks/ledger/aa_check.py [--runs 10]

Runs the benchmark command from ``BENCHMARK.json``, every workload for
``run_seconds``, in two interleaved sets, A and B, of ``--runs`` runs per
workload (a seed's two passes back to back, the set that goes first
alternating, so slow drift of the box lands on both sets).  Run *i* of
either set uses seed ``FIRST_SEED + i``: the spread of a set is therefore
across seeds as well as across time.  For every workload
and end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over median) and how much worse B's median is than A's,
and compares both with the metric's bound.  ``setup_s`` is exempt from the
spread check, as in the acceptance procedure this mirrors.  The two runs of
one seed must report exactly the same ``sim_completion_s``.

A failed run counts as a breach and its set goes on without it.  Exits
non-zero on any breach, and writes the numbers to ``BASELINE.json`` beside
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIRST_SEED = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(command, workload: str, seed: int, seconds: int) -> dict | None:
    """The end-to-end metrics of one run, or ``None`` if it failed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    except subprocess.TimeoutExpired:
        print(f"{' '.join(argv)} did not end within 180 s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = {w: {"A": [], "B": []} for w in workloads}
    breaches = []
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        sims = {w: set() for w in workloads}
        for label in ("AB", "BA")[seed % 2]:
            for workload in workloads:
                values = one_run(spec["command"], workload, seed, spec["run_seconds"])
                if values is None:
                    breaches.append(f"{workload} seed {seed} set {label} FAILED")
                else:
                    sets[workload][label].append(values)
                    sims[workload].add(values["sim_completion_s"])
                print(f"seed {seed} set {label} {workload} done", flush=True)
        breaches += [f"{w} seed {seed} sim_completion_s DIFFERS" for w in workloads
                     if len(sims[w]) > 1]

    report = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':20s} {'bound':>6s} {'A median':>11s} {'A spread':>9s} "
              f"{'B median':>11s} {'B spread':>9s} {'B worse by':>10s}")
        report[workload] = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = summary([run[name] for run in sets[workload]["A"]])
            b = summary([run[name] for run in sets[workload]["B"]])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            report[workload][name] = {"A": a, "B": b, "B_worse_by": worse, "bound": bound}
            flags = []
            if name != "setup_s" and max(a["spread"], b["spread"]) > bound:
                flags.append("SPREAD")
            if abs(worse) > bound:
                # Either set may come second, so disagreement counts both ways.
                flags.append("MEDIAN")
            print(f"  {name:20s} {bound:6.2f} {a['median']:11.5g} {a['spread']:9.3f} "
                  f"{b['median']:11.5g} {b['spread']:9.3f} {worse:+10.3f} {' '.join(flags)}")
            breaches += [f"{workload} {name} {flag}" for flag in flags]

    baseline = {
        "date": time.strftime("%Y-%m-%d"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "runs_per_set": args.runs,
        "run_seconds": spec["run_seconds"],
        "first_seed": FIRST_SEED,
        "breaches": breaches,
        "workloads": report,
    }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    print("\n" + (f"{len(breaches)} breaches: " + "; ".join(breaches) if breaches
                  else "A and B agree within every bound"))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
