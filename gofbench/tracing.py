"""Per-module spans, recorded from outside the program.

Each public function of the traced gofknots modules is replaced by a wrapper
on its module, so calls that resolve through a module attribute (every call
between modules, and the module-global calls inside one) open a span.  Calls
made through a name bound by ``from ... import`` keep the original function
and are not seen.  Spans are aggregated in memory per name: calls, inclusive
time, self time (inclusive minus the time covered by nested spans), the
parent of each call and, where asked, every call's duration.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("twobridge", "classify", "braid", "cover", "verify", "cli")

# names whose per-call durations are kept for percentiles
KEEP_DURATIONS = {"classify.gof_count", "classify.identify_closure", "braid.is_conjugate"}


class Stat:
    __slots__ = ("calls", "total", "self_time", "yielded", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.yielded = 0
        self.durations = [] if keep_durations else None


class Tracer:
    """Wraps module functions and aggregates their spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, time covered by children]

    def install(self, package) -> None:
        for mod_name in TRACED_MODULES:
            module = getattr(package, mod_name)
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                span = f"{mod_name}.{name}"
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                setattr(module, name, wrap(span, fn))
        self._count_fraction_creation(package.twobridge.Fraction)

    def _stat(self, span: str) -> Stat:
        stat = self.stats.get(span)
        if stat is None:
            stat = self.stats[span] = Stat(span in KEEP_DURATIONS)
        return stat

    def _enter(self, span: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, span)] += 1
        frame = [span, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, stat: Stat, frame: list, elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        stat.total += elapsed
        stat.self_time += elapsed - frame[1]

    def _wrap(self, span, fn):
        stat = self._stat(span)
        observe = _OBSERVERS.get(span)

        def traced(*args, **kwargs):
            frame = self._enter(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._leave(stat, frame, elapsed)
                stat.calls += 1
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, span, fn):
        """Each resumption of the generator is one span of the same name."""
        stat = self._stat(span)

        def traced(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter(span)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(stat, frame, perf_counter() - start)
                stat.yielded += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count_fraction_creation(self, cls) -> None:
        post_init = cls.__post_init__
        counters = self.counters

        def counted(obj):
            counters["twobridge.Fraction.created"] += 1
            post_init(obj)

        cls.__post_init__ = counted


def _observe_axis_classes(counters, args, report):
    counters["classify.witness_letters"] += sum(len(w.word) for w in report.witnesses)


def _observe_identify(counters, args, result):
    if result is not None:
        counters["classify.identify_closure.identified"] += 1


def _observe_burau(counters, args, result):
    counters["cover.burau_matrix.letters"] += len(args[0])


_OBSERVERS = {
    "classify.axis_classes": _observe_axis_classes,
    "classify.identify_closure": _observe_identify,
    "cover.burau_matrix": _observe_burau,
}


def _percentile_us(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(tracer: Tracer, rounds: int, rows_out: int, bytes_out: int) -> dict:
    """Per-module metrics per round; percentiles over every call of the run."""
    stats = tracer.stats

    def stat(span):
        return stats.get(span) or Stat(False)

    def per_round(x):
        return x / rounds

    counters = tracer.counters
    scan_canonical = tracer.edges[("classify.canonical_fractions", "twobridge.canonical")]
    fractions_yielded = stat("classify.canonical_fractions").yielded
    conj_in_identify = tracer.edges[("classify.identify_closure", "braid.is_conjugate")]
    return {
        "twobridge.canonical.calls": per_round(stat("twobridge.canonical").calls),
        "twobridge.canonical.self_s": per_round(stat("twobridge.canonical").self_time),
        "twobridge.orbit.calls": per_round(stat("twobridge.orbit").calls),
        "twobridge.orbit.self_s": per_round(stat("twobridge.orbit").self_time),
        "twobridge.Fraction.created": per_round(counters["twobridge.Fraction.created"]),
        "twobridge.orientation_classes.self_s": per_round(stat("twobridge.orientation_classes").self_time),
        "classify.canonical_fractions.self_s": per_round(stat("classify.canonical_fractions").self_time),
        "classify.canonical_fractions.yield_ratio": fractions_yielded / scan_canonical if scan_canonical else 0.0,
        "classify.axis_classes.calls": per_round(stat("classify.axis_classes").calls),
        "classify.axis_classes.self_s": per_round(stat("classify.axis_classes").self_time),
        "classify.family_hits.calls": per_round(stat("classify.family_hits").calls),
        "classify.family_hits.self_s": per_round(stat("classify.family_hits").self_time),
        "classify.family_membership.calls": per_round(stat("classify.family_membership").calls),
        "classify.gof_count.p50_us": _percentile_us(stat("classify.gof_count").durations, 50),
        "classify.gof_count.p99_us": _percentile_us(stat("classify.gof_count").durations, 99),
        "classify.witness_letters": per_round(counters["classify.witness_letters"]),
        "classify.identify_closure.self_s": per_round(stat("classify.identify_closure").self_time),
        "classify.identify_closure.p50_us": _percentile_us(stat("classify.identify_closure").durations, 50),
        "classify.identify_closure.p99_us": _percentile_us(stat("classify.identify_closure").durations, 99),
        "classify.identification_candidates.yielded": per_round(stat("classify.identification_candidates").yielded),
        "classify.identify_closure.conj_hit_ratio": (
            counters["classify.identify_closure.identified"] / conj_in_identify if conj_in_identify else 0.0
        ),
        "braid.is_conjugate.calls": per_round(stat("braid.is_conjugate").calls),
        "braid.is_conjugate.self_s": per_round(stat("braid.is_conjugate").self_time),
        "braid.is_conjugate.p99_us": _percentile_us(stat("braid.is_conjugate").durations, 99),
        "braid.normal_form.calls": per_round(stat("braid.normal_form").calls),
        "braid.normal_form.self_s": per_round(stat("braid.normal_form").self_time),
        "braid.nf_mul.calls": per_round(stat("braid.nf_mul").calls),
        "cover.burau_matrix.calls": per_round(stat("cover.burau_matrix").calls),
        "cover.burau_matrix.letters": per_round(counters["cover.burau_matrix.letters"]),
        "cover.burau_matrix.self_s": per_round(stat("cover.burau_matrix").self_time),
        "verify.verify_counts.s": per_round(stat("verify.verify_counts").total),
        "verify.verify_orientation_uniqueness.s": per_round(stat("verify.verify_orientation_uniqueness").total),
        "verify.verify_inverse_identity.s": per_round(stat("verify.verify_inverse_identity").total),
        "verify.verify_burau_witnesses.s": per_round(stat("verify.verify_burau_witnesses").total),
        "verify.verify_conjugacy_suite.s": per_round(stat("verify.verify_conjugacy_suite").total),
        "cli.self_s": per_round(stat("cli.run").self_time),
        "cli.rows": per_round(rows_out),
        "cli.bytes_out": per_round(bytes_out),
    }


def span_table(tracer: Tracer) -> list[dict]:
    """Every span with its totals and its callers, by self time, for the trace file."""
    callers: dict[str, dict] = {}
    for (parent, child), n in tracer.edges.items():
        callers.setdefault(child, {})[parent or "<benchmark>"] = n
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)
    return [
        {
            "span": name,
            "calls": s.calls,
            "total_s": s.total,
            "self_s": s.self_time,
            "yielded": s.yielded,
            "callers": callers.get(name, {}),
        }
        for name, s in ranked
    ]
