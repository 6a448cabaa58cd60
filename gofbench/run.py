"""Benchmark for gofknots: one workload per process, closed loop, one thread.

Run from the root of a source checkout:

    python3 gofbench/run.py --workload census --seed 1 --seconds 28 --trace 0

The program is imported from ``src/`` of the working directory.  The
workload's round of operations is repeated until ``--seconds`` have passed;
each call is issued only after the previous one returned.  A call that
raises is counted in ``failed`` and makes ``correct`` false: no operation of
these workloads fails on a working program.  With ``--trace 0`` the end-to-end metrics are
reported (setup_s, run_s, peak_rss_mib); with ``--trace 1`` the per-module
metrics, taken by wrapping the program's public functions from outside, along
with the traced run's own run_s.  The last line of stdout is one JSON object;
the same object, and for a traced run the span table, is written under
``.gofbench_out/``.  ``"correct": false`` there means an output failed its
check; exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import WORKLOADS

SETUP_BATCHES = 6  # one before the timed rounds, four during, one after
SETUP_BATCH_SIZE = 3
# The machine's speed is not steady (see the README), so times are given at a
# fixed reference speed: run_s at the speed where reference_work() takes
# REFERENCE_S, and setup_s at the speed where a bare interpreter starts in
# BARE_START_S.
REFERENCE_S = 0.005
PROBES = 4  # reference_work() runs after each round
BARE_START_S = 0.08
IMPORT_SAMPLES = 5
SUBMODULES = ("braid", "twobridge", "classify", "cover", "verify")
OUT_DIR = ".gofbench_out"


def _fresh_python(src: Path, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return perf_counter() - start, proc


class SetupSampler:
    """setup_s: the time for a fresh interpreter to finish `import gofknots`.

    Starts that import gofknots alternate with bare starts (`python -c pass`)
    in batches spread over the whole run: between rounds, never during a
    timed call.  Both kinds of start slow down together when the machine
    does, so setup_s is the median import start over the median bare start,
    times BARE_START_S (see the README).
    """

    def __init__(self, src: Path, seconds: float):
        self.src = src
        self.interval = seconds / (SETUP_BATCHES - 1)
        self.due = self.interval
        self.batches = 0
        self.imports: list[float] = []
        self.bare: list[float] = []

    def batch(self) -> None:
        for _ in range(SETUP_BATCH_SIZE):
            self.imports.append(_fresh_python(self.src, ["-c", "import gofknots"])[0])
            self.bare.append(_fresh_python(self.src, ["-c", "pass"])[0])
        self.batches += 1

    def between_rounds(self, elapsed: float) -> None:
        if elapsed >= self.due and self.batches < SETUP_BATCHES - 1:
            self.batch()
            self.due += self.interval

    def setup_s(self) -> float:
        return BARE_START_S * statistics.median(self.imports) / statistics.median(self.bare)


def reference_work() -> int:
    """A fixed piece of interpreter work that uses nothing of gofknots."""
    table = {}
    items = []
    acc = 0
    for i in range(1, 6000):
        key = (i, (i * 7919) % 10007)
        table[key] = gcd(i, key[1])
        items.append(key)
        acc = (acc * 31 + table[key]) % 1000003
    items.sort(key=lambda key: key[1])
    return acc + len(items)


def probe(probes: list[float]) -> None:
    """Time reference_work() PROBES times, with the collector off, so that the
    program's heap does not change what the loop costs."""
    gc.disable()
    try:
        for _ in range(PROBES):
            t0 = perf_counter()
            reference_work()
            probes.append(perf_counter() - t0)
    finally:
        gc.enable()


def measure_imports(src: Path) -> tuple[dict, list[str]]:
    """Cumulative import times from -X importtime, and a cold CLI query."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        _, proc = _fresh_python(src, ["-X", "importtime", "-c", "import gofknots"])
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)$", line)
            if m and m.group(3).split(".")[0] == "gofknots":
                samples.setdefault(m.group(3), []).append(int(m.group(1)) / 1000)
    names = ["gofknots"] + [f"gofknots.{s}" for s in SUBMODULES]
    missing = [n for n in names if n not in samples]
    if missing:
        raise RuntimeError(f"-X importtime did not report {missing}")
    metrics = {f"import.{n.split('.')[-1]}_ms": statistics.median(samples[n]) for n in names}

    cold = []
    problems = []
    for _ in range(IMPORT_SAMPLES):
        elapsed, proc = _fresh_python(src, ["-m", "gofknots.cli", "gof", "19", "3"])
        cold.append(elapsed * 1000)
        out = json.loads(proc.stdout)
        words = [checks.syllables(w) for w in out["witnesses"]]
        problems += checks.witness_problems(19, 3, out["gof_count"], words)
    metrics["cli.gof_cold_ms"] = statistics.median(cold)
    return metrics, problems


class Failure(tuple):
    """Digest of a call that raised: (exception type, message)."""


@dataclass
class Rounds:
    times: list[float] = field(default_factory=list)  # each round's time, the calls' times summed
    probes: list[float] = field(default_factory=list)  # reference_work() times, taken between rounds
    first: list = field(default_factory=list)  # the digests of round 1
    count: int = 0  # rounds run
    mismatched: int = 0  # digests of later rounds that differ from round 1
    attempted: int = 0
    failed: int = 0


def run_rounds(workload, ops, seconds: float, between_rounds=None) -> Rounds:
    """Repeat the round until the time is up; time each call on its own.

    Only round 1's digests are kept.  A later round's digest is compared with
    round 1's as soon as it is made and then dropped, so what the benchmark
    holds does not grow with the number of rounds, and the peak memory does
    not depend on how fast the program or the machine is.

    The reference loop is timed before round 1 and after every round.
    ``between_rounds(elapsed)``, if given, is called after each round; the
    time it and the reference loop take does not count towards ``seconds``.
    """
    rounds = Rounds()
    start = perf_counter()
    probe(rounds.probes)
    paused = perf_counter() - start
    while True:
        gc.collect()
        round_time = 0.0
        for i, op in enumerate(ops):
            rounds.attempted += 1
            t0 = perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed call is counted, not fatal
                round_time += perf_counter() - t0
                rounds.failed += 1
                digest = Failure((type(exc).__name__, str(exc)))
            else:
                round_time += perf_counter() - t0
                digest = workload.digest(op, result)
                del result
            if rounds.count == 0:
                rounds.first.append(digest)
            elif digest != rounds.first[i]:
                rounds.mismatched += 1
            del digest
        rounds.times.append(round_time)
        rounds.count += 1
        elapsed = perf_counter() - start - paused
        t0 = perf_counter()
        probe(rounds.probes)
        if elapsed >= seconds:
            return rounds
        if between_rounds is not None:
            between_rounds(elapsed)
        paused += perf_counter() - t0


def run_seconds(rounds: Rounds) -> float:
    """The median round's time at the reference speed.

    Other tenants of the machine slow it down, for stretches of a second to
    minutes; the reference loop, timed between the rounds of the same run,
    slows down with it, and the ratio of the two medians stays.
    """
    return statistics.median(rounds.times) * REFERENCE_S / statistics.median(rounds.probes)


def check_rounds(workload, ops, rounds: Rounds) -> list[str]:
    """Problems with the outputs: every failed call, wrong output or unsteady round."""
    problems = [
        f"{_short(op)} raised {d[0]}: {d[1][:200]}" for op, d in zip(ops, rounds.first) if isinstance(d, Failure)
    ]
    passed = [(op, d) for op, d in zip(ops, rounds.first) if not isinstance(d, Failure)]
    if passed:
        problems += workload.check([op for op, _ in passed], [d for _, d in passed])
    else:
        problems.append("no operation returned, so no output was checked")
    if rounds.mismatched:
        problems.append(f"{rounds.mismatched} outputs of later rounds differ from round 1")
    return problems


def _short(op) -> str:
    text = repr(op)
    return text if len(text) <= 120 else text[:117] + "..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gofknots" / "__init__.py").is_file():
        print(f"error: no gofknots sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    problems: list[str] = []
    _fresh_python(src, ["-c", "import gofknots"])  # writes the bytecode cache
    if args.trace:
        setup_metrics, cold_problems = measure_imports(src)
        problems += cold_problems
    else:
        sampler = SetupSampler(src, args.seconds)
        sampler.batch()

    sys.path.insert(0, str(src))
    import gofknots
    import gofknots.cli  # not imported by the package itself

    if Path(gofknots.__file__).resolve().parent != (src / "gofknots").resolve():
        print(f"error: imported gofknots from {gofknots.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](gofknots, out_dir / stem)
    ops = workload.make_ops(random.Random(f"{args.workload}/{args.seed}"))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(gofknots)

    rounds = run_rounds(workload, ops, args.seconds, None if args.trace else sampler.between_rounds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        sampler.batch()

    problems += check_rounds(workload, ops, rounds)

    run_s = run_seconds(rounds)
    if args.trace:
        metrics = {"traced.run_s": run_s, **setup_metrics}
        metrics.update(
            tracing.layer_metrics(
                tracer, rounds.count, getattr(workload, "rows", 0), getattr(workload, "bytes_out", 0)
            )
        )
    else:
        metrics = {"setup_s": sampler.setup_s(), "run_s": run_s, "peak_rss_mib": peak_rss_mib}

    declared = _declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(set(metrics) ^ set(declared))} out of step with BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracing.span_table(tracer), indent=1) + "\n")

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(
        f"workload {args.workload} seed {args.seed}: {rounds.count} rounds, "
        f"{rounds.attempted} operations attempted, {rounds.failed} failed, checks {'passed' if not problems else 'FAILED'}"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def _declared_metrics(root: Path, kind: str) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
