"""Spans and counters recorded around calls into the library's public functions.

A wrapper is patched in at the name the caller looks up (``core.points_in_boxes``
is what ``StateRegion.contains_batch`` calls), so the library's own files stay
untouched. Each span holds its name, start and end in integer nanoseconds, the
index of its parent span and the op id. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct children;
one thread runs everything, so children never overlap. Counters are keyed by
metric name, and exceptions by ``"<span name>:<exception class>"``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from trajconstrain import cli, core, engine, gaussian, oracle

Span = Tuple[str, int, int, int, int]  # name, start_ns, end_ns, parent index (-1 = none), op id


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._unique: set = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._unique = set()

    def wrap(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper around it."""
        inner = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                tracer.counters[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            if count is not None:
                count(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, inner))

    def install(self) -> None:
        """Patch every traced boundary of the library."""
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "fit_bernoulli_track", "scenario.fit", _count_fit)
        self.wrap(cli, "step_moments", "gaussian.step_moments")
        self.wrap(engine, "constrain_pmbm", "engine.constrain_pmbm")
        self.wrap(engine, "constrain_density", "engine.constrain_density", _count_density)
        for module in (cli, oracle):
            self.wrap(module, "constrained_marginals", "engine.marginals", _count_marginals)
        self.wrap(engine, "region_probability", "gaussian.region_probability")
        for module in (engine, gaussian):
            self.wrap(module, "marginal", "gaussian.marginal")
        self.wrap(gaussian.GaussianSequence, "draw", "gaussian.draw", _count_draw)
        for module in (engine, oracle):
            self.wrap(module, "satisfies_batch", "core.satisfies_batch", _count_satisfies)
        self.wrap(core, "points_in_boxes", "kernels.points_in_boxes", _count_boxes)
        self.wrap(engine, "pattern_codes", "kernels.pattern_codes", _count_codes)
        self.wrap(cli, "oracle_bernoulli", "oracle.bernoulli")
        self.wrap(cli, "oracle_ppp", "oracle.ppp")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, inner = self._patched.pop()
            setattr(owner, attr, inner)

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span, ns in zip(self.spans, self_ns(self.spans)):
            out[span[0]] += ns * 1e-9
        return out

    def total_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) * 1e-9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}))
                f.write("\n")


def self_ns(spans: List[Span]) -> List[int]:
    """Self time in ns of every span, in span order: its duration minus its children's."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def read_spans(path: Path) -> List[Span]:
    """The spans of a trace written by ``Tracer.write``."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [(r["name"], r["start_ns"], r["end_ns"], r["parent"], r["op"]) for r in rows]


def _count_fit(t: Tracer, args, result) -> None:
    t.counters["scenario.fit_calls"] += 1
    t.counters["scenario.fit_pairs"] += len(result.density.pmf.pairs)


def _count_density(t: Tracer, args, result) -> None:
    ctd, _ = result
    t.counters["engine.components"] += 1
    if id(args[0]) not in t._unique:
        t._unique.add(id(args[0]))
        t.counters["engine.unique_components"] += 1
    for info in ctd.pair_info.values():
        t.counters["engine.pairs"] += 1
        if info.spatial_prob in (0.0, 1.0):
            t.counters["engine.trivial_pairs"] += 1
        elif info.spatial_se > 0.0:
            t.counters["engine.mc_pairs"] += 1


def _count_marginals(t: Tracer, args, result) -> None:
    t.counters["engine.accepted"] += result.n_accepted
    if result.acceptance_rate > 0.0:
        t.counters["engine.proposed"] += round(result.n_accepted / result.acceptance_rate)


def _count_draw(t: Tracer, args, result) -> None:
    n, k = result.shape
    t.counters["gaussian.draw_rows"] += n
    t.counters["gaussian.draw_dims"] += k
    # eigh of the k x k covariance (~9 k^3) plus the (n, k) @ (k, k) product.
    t.counters["gaussian.draw_flops_computed"] += 9 * k**3 + 2 * n * k * k


def _count_satisfies(t: Tracer, args, result) -> None:
    t.counters["core.satisfies_batch_rows"] += result.shape[0]


def _count_boxes(t: Tracer, args, result) -> None:
    points, lows, _ = args
    n, k = points.shape
    t.counters["kernels.points_in_boxes_rows"] += n
    # Each box pass reads every point (8-byte floats); the mask is written once.
    t.counters["kernels.points_in_boxes_bytes_computed"] += lows.shape[0] * n * k * 8 + n


def _count_codes(t: Tracer, args, result) -> None:
    t.counters["kernels.pattern_codes_rows"] += result.shape[0]
