#!/usr/bin/env python3
"""matrex benchmark: one workload per run, closed loop, one solve in flight.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
also runs two traced passes over the workload and prints the per-layer
metrics, the tracing overhead and the determinism checks.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run also writes its full record (environment, per-case
times) under ``.bench_out/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: set-up (generation, files, warm-up) is repeated and its median reported
SETUP_REPEATS = 5


def import_matrex():
    """Import matrex from this checkout's sources, never from elsewhere."""
    package = SRC / "matrex"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: matrex sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import matrex

    if Path(matrex.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported matrex from {matrex.__file__}, not {package}")


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "flags": {name: getattr(sys.flags, name) for name in (
            "optimize", "dev_mode", "hash_randomization", "no_site", "isolated")},
        "asserts": __debug__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Ledger:
    """Outcomes of every solve attempted in this run.  A solve fails when it
    raises, fails its output check, or its digest differs from the one
    recorded in expected.json (or from its own earlier digest)."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, workload, item):
        """Run one item; returns its Outcome, or None if it raised."""
        self.attempted += 1
        try:
            outcome = workload.run(item)
        except Exception as exc:  # a failed solve is counted, not fatal
            self._fail(item, f"raised {type(exc).__name__}: {exc}")
            return None
        first = self.digests.setdefault(item.case, outcome.digest)
        if outcome.error is not None:
            self._fail(item, outcome.error)
        elif outcome.digest != self.expected.get(item.case):
            self._fail(item, f"result digest {outcome.digest}, "
                             f"expected {self.expected.get(item.case)}")
        elif outcome.digest != first:
            self._fail(item, "result digest changed between solves")
        return outcome

    def _fail(self, item, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{item.case}: {message}")


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of 3 tries).

    The shared host switches between fast and slow phases lasting seconds;
    the same code runs up to 1.7 times slower in a slow phase.  Every timed
    solve is therefore bracketed by probes and scaled to the probe's
    reference time (see ``normalised``)."""
    best = float("inf")
    for _ in range(3):
        table: dict[int, int] = {}
        t0 = time.perf_counter()
        for i in range(4000):
            table[i % 997] = table.get(i % 997, 0) + i * i
        best = min(best, time.perf_counter() - t0)
    return best


#: reported seconds are wall seconds scaled to a host on which probe() takes this long
PROBE_REF_S = 1e-3


def normalised(seconds: float, before: float, after: float) -> float:
    """Wall seconds scaled by the host speed the probes around them saw."""
    return seconds * 2 * PROBE_REF_S / (before + after)


class Timings:
    """Raw and host-normalised times of each case, and every probe taken."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.norm: dict[str, list[float]] = {}
        self.probes = [probe()]

    def run(self, workload, item, ledger):
        """Run one item between two probes; returns its Outcome or None."""
        outcome = ledger.run(workload, item)
        self.probes.append(probe())
        if outcome is not None:
            self.raw.setdefault(item.case, []).append(outcome.seconds)
            self.norm.setdefault(item.case, []).append(
                normalised(outcome.seconds, *self.probes[-2:]))
        return outcome

    @staticmethod
    def _case_medians(times: dict[str, list[float]]) -> list[float]:
        return [statistics.median(ts) for ts in times.values()]

    def rate(self, raw=False) -> float:
        """Solves per second over one pass of the ladder at each case's median time."""
        medians = self._case_medians(self.raw if raw else self.norm)
        return len(medians) / sum(medians)

    def p50_ms(self, raw=False) -> float:
        """Median over the cases of each case's median solve time."""
        return 1e3 * statistics.median(self._case_medians(self.raw if raw else self.norm))

    def samples(self) -> int:
        return sum(map(len, self.raw.values()))


def setup(workload, workdir, ledger) -> tuple[list, list[float], list[float]]:
    """Generate the ladder and warm up, SETUP_REPEATS times; returns the
    items and the raw and normalised seconds of each set-up."""
    raw, norm = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = workload.setup(workdir)
        ledger.run(workload, items[0])
        raw.append(time.perf_counter() - t0)
        after = probe()
        norm.append(normalised(raw[-1], before, after))
        before = after
    return items, raw, norm


def measure(workload, items, ledger, seconds, rng) -> Timings:
    """Closed loop: passes over the ladder, each in a seeded order, until
    ``seconds`` of wall time have passed.  The first pass always completes,
    so every case is timed at least once."""
    timings = Timings()
    t_end = time.perf_counter() + seconds
    first = True
    while True:
        order = items[:]
        rng.shuffle(order)
        for item in order:
            timings.run(workload, item, ledger)
            if not first and time.perf_counter() >= t_end:
                return timings
        first = False
        if time.perf_counter() >= t_end:
            return timings


def traced_pass(workload, items, ledger, tracer) -> Timings:
    """One pass in ladder order under the tracer."""
    timings = Timings()
    for solve_id, item in enumerate(items):
        tracer.begin_solve(solve_id)
        timings.run(workload, item, ledger)
        tracer.end_solve()
    return timings


def crosscheck(items, tracer) -> list[str]:
    """Rows comparing the traced run with the baseline figures in ROADMAP.md."""
    wanted = {solve_id: item.case for solve_id, item in enumerate(items)
              if item.case.startswith(("K40-k4#", "GF3-30x90-k4#"))}
    spans: dict[int, list[int]] = {solve_id: [] for solve_id in wanted}
    for i, solve_id in enumerate(tracer.solve):
        if solve_id in spans:
            spans[solve_id].append(i)
    rows = []
    for solve_id, case in wanted.items():
        calls, selft, incl = tracer.layer_totals(spans[solve_id])
        total = incl["exchange.cyclic_exchange"] + incl["exchange.instance"]
        if case.startswith("K40"):
            got = (calls["union.arm"], calls["core.slot"], calls["core.base"])
            within = all(abs(g - w) <= 0.15 * w for g, w in zip(got, (5783, 4230, 3980)))
            rows.append(
                f"crosscheck {case}: arm/lift/graphic queries "
                f"{got[0]:,} / {got[1]:,} / {got[2]:,} vs ROADMAP 5,783 / 4,230 / 3,980: "
                f"{'reproduces (within 15%)' if within else 'corrects'}")
            share = incl["core.check_subset"] / total
            rows.append(
                f"crosscheck {case}: check_subset share of traced solve time {share:.0%} "
                f"vs ROADMAP ~43%: {'reproduces' if abs(share - 0.43) <= 0.08 else 'corrects'}")
        else:
            share = selft["core.base"] / total
            rows.append(
                f"crosscheck {case}: linear base-query self-time share of traced solve "
                f"time {share:.0%} vs ROADMAP ~85%: "
                f"{'reproduces' if abs(share - 0.85) <= 0.08 else 'corrects'}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # python -O strips matroid_partition's final verify_partition: a different program
        raise SystemExit("error: run with asserts enabled (no -O / PYTHONOPTIMIZE)")

    import_matrex()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())[args.workload]
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = environment(args)
    ledger = Ledger(expected)
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        items, setup_raw, setup_norm = setup(workload, Path(workdir), ledger)
        timings = measure(workload, items, ledger, args.seconds, rng)
        if not timings.norm:
            raise SystemExit("error: no solve completed\n" + "\n".join(ledger.errors[:20]))
        record = {"env": env, "setup_s": setup_raw, "setup_s_normalised": setup_norm,
                  "items": len(items), "probe_ms": [p * 1e3 for p in timings.probes],
                  "per_case_ms": {c: [t * 1e3 for t in ts] for c, ts in timings.raw.items()},
                  "per_case_normalised_ms": {
                      c: [t * 1e3 for t in ts] for c, ts in timings.norm.items()}}
        if args.trace:
            metrics, report, ok = traced_run(args, workload, items, ledger, timings)
        else:
            metrics, report, ok = end_to_end(timings, setup_raw, setup_norm)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} "
                           f"disagree with {BENCHMARK.name}")
    report += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    record["metrics"] = metrics
    record["errors"] = ledger.errors

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("env " + json.dumps(env, sort_keys=True))
    for line in report:
        print(line)
    for error in ledger.errors[:20]:
        print(f"error {error}")
    failed = ledger.failed
    print(f"error_rate {failed / ledger.attempted:.6f} ({failed} of {ledger.attempted} solves)")
    result = {
        "correct": ok and failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(timings, setup_raw, setup_norm):
    metrics = {
        "solves_per_s": timings.rate(),
        "solve_ms.p50": timings.p50_ms(),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probes = sorted(timings.probes)
    report = [
        f"solves {timings.samples()} over {len(timings.norm)} cases",
        f"probe ms: min {probes[0] * 1e3:.3f} median {statistics.median(probes) * 1e3:.3f} "
        f"max {probes[-1] * 1e3:.3f} (reference {PROBE_REF_S * 1e3:g})",
        f"wall solves_per_s {timings.rate(raw=True):.6g} 1/s, "
        f"wall solve_ms.p50 {timings.p50_ms(raw=True):.6g} ms, "
        f"wall setup_s {statistics.median(setup_raw):.6g} s",
    ]
    ms = sorted(t * 1e3 for ts in timings.norm.values() for t in ts)
    if len(ms) >= 100:  # at least ten samples beyond p90
        report.append(f"solve_ms.p90 {statistics.quantiles(ms, n=10)[-1]:.6g} ms")
    return metrics, report, True


def traced_run(args, workload, items, ledger, untraced):
    """Two traced passes: per-layer metrics from the first, exact repeat of
    every count in the second, digests equal to the untraced ones."""
    from tracing import Tracer, count_metrics

    failed_before = ledger.failed
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            timings = traced_pass(workload, items, ledger, tracer)
        finally:
            tracer.uninstall()
        runs.append((tracer, tracer.per_layer(), timings))
    (tracer, metrics, timings), (_, again, timings2) = runs
    report = []
    ok = True
    first, second = count_metrics(metrics), count_metrics(again)
    for name in first:
        if first[name] != second[name]:
            ok = False
            report.append(f"determinism FAIL {name}: {first[name]} then {second[name]}")
    if ledger.failed > failed_before:
        ok = False
        report.append("determinism FAIL traced outputs differ from untraced outputs")
    report.append(f"determinism {'ok' if ok else 'FAIL'}: {len(first)} counts repeat, "
                  f"traced digests equal untraced")
    traced_rate = 2 / (1 / timings.rate() + 1 / timings2.rate())
    metrics["trace.solves_per_s"] = traced_rate
    metrics["trace.untraced_solves_per_s"] = untraced.rate()
    metrics["trace.overhead"] = untraced.rate() / traced_rate
    metrics["trace.spans"] = len(tracer.start)
    report += crosscheck(items, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}.spans.csv.gz")
    return metrics, report, ok


if __name__ == "__main__":
    sys.exit(main())
