"""The performance ledger: run one workload, print every metric, check outputs.

    python3 benchmarks/ledger/run.py --workload serial_full --seed 5 --seconds 22 --trace 0

One process, one thread.  Set-up is timed on its own; then identical
rounds repeat until ``--seconds`` of round time have been measured.  The
box this runs on changes speed by a quarter for seconds to minutes at a
time, so a fixed reference loop is timed every few tenths of a second and
every duration is divided by the reference time around it: all times are
in *calibrated seconds*, the seconds a box that runs the loop in 3 ms would
have taken.  A latency is the median over the rounds of one operation's
calibrated time, averaged over the round's operations.  ``--trace 1``
spends half the time on untraced rounds and half on rounds with
``spans.py`` wrappers installed, and reports the per-layer metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
an operation fails its oracle check.  README.md has the protocol.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from spans import DATASET, ROUND, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "first_result_s": "s",
    "k10_result_s": "s",
    "completion_s": "s",
    "completion_p80_s": "s",
    "result_gap_max_s": "s",
    "queries_per_s": "1/s",
    "sim_completion_s": "sim-s",
    "peak_rss_mb": "MB",
}

#: A tail percentile wants ten samples beyond it: p80 takes fifty operations.
TAIL_MIN_OPS = 50

#: Layers made of several functions report ``<layer>.self_s``, the rest ``<layer>_self_s``.
GROUPED = ("core.pqueue", "core.utility", "core.kernels")

#: metric -> layer whose call count it is.
CALLS = {
    "sampling.sample_calls": "sampling.sample",
    "core.search.steps": "core.search.step",
    "core.pqueue.calls": "core.pqueue",
    "core.utility.calls": "core.utility",
    "core.kernels.calls": "core.kernels",
    "core.datamanager.read_window_calls": "core.datamanager.read_window",
    "core.datamanager.estimate_calls": "core.datamanager.estimate",
    "storage.database.range_agg_calls": "storage.database.range_agg",
    "storage.disk.requests": "storage.disk.read",
    "storage.sqlite_backend.blocks_matching_calls": "storage.sqlite_backend.blocks_matching",
    "storage.sqlite_backend.gather_calls": "storage.sqlite_backend.gather",
    "storage.sqlite_backend.install_cells_calls": "storage.sqlite_backend.install_cells",
    "serve.protocol.messages": "serve.protocol.encode",
    "distributed.worker.steps": "distributed.worker.step",
}

#: Counts a workload takes from the program's reports (zero where it has none).
REPORTED = (
    "core.search.explored", "core.search.results", "core.datamanager.cells_read",
    "core.datamanager.prefetched_cells", "storage.disk.seeks", "storage.disk.sim_time_s",
    "storage.sqlite_backend.cells_installed", "serve.manager.admitted",
    "serve.manager.rejected", "serve.scheduler.slices", "serve.cache.lookup_cells",
    "serve.cache.hit_ratio", "serve.client.polls", "serve.client.empty_poll_ratio",
    "distributed.worker.explored", "distributed.messages.messages_sent",
    "distributed.messages.cells_shipped",
)


class Pace:
    """Times a fixed reference loop now and then: how fast is the box right now?

    The loop does what the program does most — it churns small tuples
    through a dict and a heap and makes thousands of tiny numpy calls — so
    that whatever slows the program (a busy sibling hyperthread, a noisy
    cache) slows the loop by the same share.  Of the loops tried, this one
    tracked the serial and the distributed query best (README.md).
    ``scale(start, end)`` is what a duration measured between those two
    ``perf_counter`` readings is multiplied by to give calibrated seconds.
    """

    NOMINAL_S = 0.003  # the loop on the reference box when nothing else runs
    EVERY_S = 0.3
    BURST = 3

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.at: list[float] = []
        self.loop_s: list[float] = []
        #: Seconds spent in the loop itself, to take off a round's wall time.
        self.spent_s = 0.0
        self._array = np.arange(64, dtype=float)

    def _loop(self) -> float:
        start = perf_counter()
        seen, heap = {}, []
        for i in range(2000):
            item = (i, i * 0.5, (i, i + 1))
            seen[item[2]] = item
            heapq.heappush(heap, (-(i % 97) * 0.1, i, item))
            if i % 3 == 0:
                heapq.heappop(heap)
        sum(item[1] for item in seen.values())
        view = self._array
        for _ in range(3000):
            view[3:40].sum()
        return perf_counter() - start

    def sample(self) -> None:
        if not self.enabled:
            return
        start = perf_counter()
        times = [self._loop() for _ in range(self.BURST)]
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.loop_s.append(statistics.median(times))
        self.spent_s += end - start

    def between_ops(self) -> None:
        """Sample if the last sample is older than ``EVERY_S``."""
        if not self.at or perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        around = np.interp(np.linspace(start, end, 5), self.at, self.loop_s)
        return self.NOMINAL_S / float(around.mean())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample at or below it."""
    return float(np.percentile(list(values), 100 * q, method="inverted_cdf"))


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "sim-s" if "sim_" in name else "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Ledger:
    """Rounds of one workload, checked and timed."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pace = Pace()
        #: Per timed round: one dict of calibrated seconds per op.
        self.rounds: list[list[dict]] = []
        self.rates: list[float] = []  # ops per calibrated second, per round
        self.walls: list[float] = []  # raw seconds, per round
        self.setups: list[float] = []
        self.sim_s = 0.0
        self.attempted = self.failed = 0
        self.result_hash = ""

    def set_up(self) -> None:
        gc.collect()
        self.pace.sample()
        start = perf_counter()
        self.workload.generate(self.seed)
        self.workload.prepare()
        end = perf_counter()
        self.pace.sample()
        self.setups.append((end - start) * self.pace.scale(start, end))

    def check(self, ops) -> None:
        """Count every op against the oracle; rounds must agree on windows and simulated times."""
        self.attempted += len(ops)
        for index, (op, expected) in enumerate(zip(ops, self.workload.expected)):
            problem = expected.violation(op)
            if problem is not None:
                self.failed += 1
                print(f"FAILED {self.workload.name} op {index}: {problem}", file=sys.stderr)
        digest = hashlib.sha256(
            repr([(sorted(op.windows), op.sim_s) for op in ops]).encode()
        ).hexdigest()
        if self.result_hash not in ("", digest):
            self.failed += 1
            print(f"FAILED {self.workload.name}: results differ between rounds", file=sys.stderr)
        self.result_hash = digest

    def run_round(self, timed: bool = True) -> None:
        pace = self.pace
        gc.collect()
        pace.sample()
        start, paced = perf_counter(), pace.spent_s
        ops = self.workload.round(pace)
        end = perf_counter()
        pace.sample()
        self.check(ops)
        if not timed:
            return
        wall = (end - start) - (pace.spent_s - paced)
        self.walls.append(wall)
        self.rates.append(len(ops) / (wall * pace.scale(start, end)))
        self.rounds.append(
            [
                {
                    name: getattr(op, name)
                    * pace.scale(op.issued_at, op.issued_at + getattr(op, name))
                    for name in ("first_s", "kth_s", "completion_s", "gap_max_s")
                }
                for op in ops
            ]
        )
        self.sim_s = statistics.fmean(op.sim_s for op in ops)

    def typical(self, name: str, ops=slice(None)) -> list[float]:
        """Per op, the median over the timed rounds of its calibrated time."""
        return [
            statistics.median(op[name] for op in same_op)
            for same_op in list(zip(*self.rounds))[ops]
        ]

    def end_to_end(self) -> dict[str, float]:
        primary = self.workload.primary
        completions = self.typical("completion_s", primary)
        mean = statistics.fmean(completions)
        return {
            "setup_s": statistics.median(self.setups),
            "first_result_s": statistics.fmean(self.typical("first_s")),
            "k10_result_s": statistics.fmean(self.typical("kth_s")),
            "completion_s": mean,
            "completion_p80_s": percentile(completions, 0.8)
            if len(completions) >= TAIL_MIN_OPS
            else mean,
            "result_gap_max_s": statistics.fmean(self.typical("gap_max_s", primary)),
            "queries_per_s": statistics.median(self.rates),
            # Simulated seconds to the last result, mean over every operation of
            # a round; the same in every round and every run of one seed.
            "sim_completion_s": self.sim_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def diagnostics(self) -> dict[str, float]:
        primary = self.workload.primary
        per_round = [
            statistics.fmean(op["completion_s"] for op in ops[primary]) for ops in self.rounds
        ]
        loops = sorted(self.pace.loop_s)
        return {
            "bench.rounds": len(self.rounds),
            "bench.timed_s": sum(self.walls),
            "bench.calib_s": statistics.median(loops),
            # How unsteady the box was: slow tenth over fast tenth of the loop times.
            "bench.noise_ratio": percentile(loops, 0.9) / percentile(loops, 0.1),
            # Over the rounds, of a round's mean completion.
            "bench.completion_p50_s": statistics.median(per_round),
            "bench.completion_p90_s": percentile(per_round, 0.9),
            "bench.ops_attempted": self.attempted,
            "bench.ops_failed": self.failed,
        }


def measure(ledger: Ledger, seconds: float, min_rounds: int, setup_reps: int) -> None:
    """Timed rounds, with the remaining set-up repetitions spread between them."""
    if Tracer.any_installed():
        raise RuntimeError("trace wrappers installed before the untraced rounds")
    while sum(ledger.walls) < seconds or len(ledger.rounds) < min_rounds:
        ledger.run_round()
        if len(ledger.setups) < setup_reps:
            ledger.set_up()
    while len(ledger.setups) < setup_reps:
        ledger.set_up()


def trace(ledger: Ledger, seconds: float, min_rounds: int, out_dir: str) -> dict[str, float]:
    """Traced rounds; returns every per-layer metric."""
    workload = ledger.workload
    untimed = Pace(enabled=False)  # the loop would count as unattributed time
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        tracer.call(DATASET, workload.generate, ledger.seed)
        workload.prepare()
        setup_totals = tracer.end_round()

        rounds = []
        spent = 0.0
        while spent < seconds or len(rounds) < min_rounds:
            gc.collect()
            tracer.begin_round()
            ops = workload.round(untimed)
            totals = tracer.end_round()
            wall = totals[ROUND].total_s
            ledger.check(ops)
            if not rounds or wall < min(w for w, _ in rounds):
                tracer.keep_round(len(rounds))
            rounds.append((wall, totals))
            spent += wall
    finally:
        tracer.uninstall()
    if Tracer.any_installed():
        raise RuntimeError("trace wrappers still installed after the traced rounds")

    best_wall, best_totals = min(rounds, key=lambda r: r[0])
    metrics = {}
    for layer in tracer.layers[1:]:
        source = [setup_totals] if layer == DATASET else [t for _, t in rounds]
        name = layer + (".self_s" if layer in GROUPED else "_self_s")
        metrics[name] = min(t[layer].self_s for t in source)
    for name, layer in CALLS.items():
        metrics[name] = best_totals[layer].calls
    steps = best_totals["core.search.step"]
    metrics["core.search.step_us"] = 1e6 * steps.total_s / steps.calls if steps.calls else 0.0
    accessed = best_totals["storage.buffer.access"].size
    missed = best_totals["storage.disk.read"].size
    metrics["storage.disk.blocks_read"] = missed
    metrics["storage.buffer.misses"] = missed
    metrics["storage.buffer.hits"] = accessed - missed
    metrics["storage.buffer.hit_ratio"] = (accessed - missed) / accessed if accessed else 0.0
    metrics["storage.sqlite_backend.rows_fetched"] = sum(
        best_totals["storage.sqlite_backend." + f].size
        for f in ("coordinates", "coordinates_of", "gather")
    )
    metrics["serve.protocol.bytes"] = best_totals["serve.protocol.encode"].size
    for name in REPORTED:
        metrics[name] = workload.counts.get(name, 0)
    metrics["bench.traced_rounds"] = len(rounds)
    metrics["bench.trace_missing_targets"] = len(tracer.missing)
    metrics["bench.trace_overhead_ratio"] = best_wall / min(ledger.walls)
    metrics["bench.unattributed_ratio"] = best_totals[ROUND].self_s / best_wall

    tracer.write(
        os.path.join(out_dir, f"{workload.name}.trace.json"),
        {
            "workload": workload.name,
            "seed": ledger.seed,
            "round_wall_s": best_wall,
            "missing_targets": tracer.missing,
            "self_s": {layer: t.self_s for layer, t in best_totals.items()},
        },
    )
    if metrics["bench.unattributed_ratio"] > 0.10:
        print(
            f"WARNING {workload.name}: {metrics['bench.unattributed_ratio']:.1%} of the "
            "round is inside no traced function",
            file=sys.stderr,
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: two rounds, two set-ups"
    )
    args = parser.parse_args(argv)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = WORKLOADS[args.workload](scratch)
        ledger = Ledger(workload, args.seed)
        seconds, min_rounds, setup_reps = args.seconds, MIN_ROUNDS, SETUP_REPS
        if args.quick:
            seconds, min_rounds, setup_reps = 0.0, 2, 2
        if args.trace:
            seconds /= 2

        ledger.set_up()
        workload.build_oracle()
        ledger.run_round(timed=False)  # warm-up: imports, allocator, page cache
        measure(ledger, seconds, min_rounds, setup_reps)
        metrics = ledger.end_to_end()
        if args.trace:
            metrics.update(trace(ledger, seconds, min_rounds, out_dir))
        metrics.update(ledger.diagnostics())  # after the trace: its ops count too
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}")
    print(f"inputs sha256 {workload.input_digest()}")
    print(f"results sha256 {ledger.result_hash}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    reported = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in metrics.items()
        if (name in END_TO_END) != bool(args.trace)
    }
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
