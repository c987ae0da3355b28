"""Span tracer for the benchmark's traced run, and the per-layer metrics
derived from its spans.

The tracer wraps module attributes that pmvlc resolves at call time, so the
library itself is not edited: each wrapped call records a span (name, start,
duration, parent) and a few counts read from its arguments and result.
Spans stay in memory; `layer_metrics` turns them into the per-layer figures
once the run is over. Leaving the `with` block restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

DETECTORS = ("ml", "bf", "iterative", "bb", "rc", "sm", "guess")
BOUND_BOOKS = ("w2sel8", "full24", "combined32", "cb1")
BOUND_M = (1, 4, 16)

# (module, attribute, span name, how to read counts from positional args
# and result)
TARGETS = (
    ("pmvlc.cli", "run_scenario", "run_scenario", None),
    ("pmvlc.cli", "codebook_report", "codebook_report", None),
    ("pmvlc.cli", "monte_carlo_ber", "monte_carlo_ber",
     lambda a, r: (a[0].detector, sum(rec.blocks for rec in r))),
    ("pmvlc.cli", "ber_union_bound", "ber_union_bound",
     lambda a, r: (a[0].label, a[1].M)),
    ("pmvlc.analysis", "ber_union_bound", "ber_union_bound",
     lambda a, r: (a[0].label, a[1].M)),
    ("pmvlc.cli", "parse_scenario", "parse_scenario", None),
    ("pmvlc.scenarios", "parse_scenario", "parse_scenario", None),
    ("pmvlc.scenarios", "named_codebook", "named_codebook", None),
    ("pmvlc.scenarios", "build_channel", "build_channel", None),
    ("pmvlc.cli", "enumerate_weight_w", "enumerate_weight_w",
     lambda a, r: (r.L, a[1], r.size)),
    ("pmvlc.cli", "combine_codebooks", "combine_codebooks",
     lambda a, r: r.L),
    ("pmvlc.analysis", "iterative_sd_detect", "iterative_sd_detect",
     lambda a, r: (r.iterations, a[1], r.w)),
    ("pmvlc.analysis", "bb_detect", "bb_detect", lambda a, r: r.q is None),
    ("pmvlc.detectors", "bf_sd_detect", "bf_sd_detect", None),
)
# generator: its span is the time spent producing assignments
GENERATOR_TARGETS = (("pmvlc.detectors", "murty_iter", "murty_iter"),)

# name, unit, better; every traced run reports all of them, with 0 where a
# workload does not exercise the layer
PER_LAYER = (
    ("assignment.murty_iter.assignments", "count", "lower"),
    ("assignment.murty_iter.s", "s", "lower"),
    ("assignment.murty_iter.assignments_per_s", "1/s", "higher"),
    ("detectors.iterative_sd_detect.calls", "count", "lower"),
    ("detectors.iterative_sd_detect.s", "s", "lower"),
    ("detectors.iterative_sd_detect.iterations_mean", "count", "lower"),
    ("detectors.iterative_sd_detect.iterations_max", "count", "lower"),
    ("detectors.iterative_sd_detect.fallback_frac", "ratio", "lower"),
    ("detectors.iterative_sd_detect.member_hit_ratio", "ratio", "higher"),
    ("detectors.bb_detect.calls", "count", "lower"),
    ("detectors.bb_detect.s", "s", "lower"),
    ("detectors.bb_detect.no_decision_frac", "ratio", "lower"),
    ("detectors.ml.decode_s", "s", "lower"),
    ("detectors.bf.decode_s", "s", "lower"),
    *((f"analysis.monte_carlo_ber.{k}.{d}", u, b) for k, u, b in (
        ("s", "s", "lower"), ("blocks", "count", "lower"),
        ("blocks_per_s", "1/s", "higher")) for d in DETECTORS),
    ("analysis.monte_carlo_ber.thread_speedup.ml", "ratio", "higher"),
    ("analysis.monte_carlo_ber.blocks_per_s_threads1.ml", "1/s", "higher"),
    ("analysis.monte_carlo_ber.blocks_per_s_threads2.ml", "1/s", "higher"),
    *((f"analysis.ber_union_bound.s.{book}-M{m}", "s", "lower")
      for book in BOUND_BOOKS for m in BOUND_M),
    ("codebook.enumerate_weight_w.s.L5", "s", "lower"),
    ("codebook.enumerate_weight_w.s.L6w1", "s", "lower"),
    ("codebook.enumerate_weight_w.s.L6w2", "s", "lower"),
    ("codebook.enumerate_weight_w.entries", "count", "higher"),
    ("codebook.combine_codebooks.s.L5", "s", "lower"),
    ("codebook.combine_codebooks.s.L6", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("cli.codebook_report.self_s", "s", "lower"),
    ("scenarios.parse_scenario.s", "s", "lower"),
    ("scenarios.named_codebook.s", "s", "lower"),
    ("channel.build_channel.s", "s", "lower"),
    ("tracing.traced_wall_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    dur: float
    parent: int | None
    info: object


class Tracer:
    """Context manager that wraps TARGETS and GENERATOR_TARGETS while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._local.stack = self._root
        for mod_name, attr, name, info in TARGETS:
            self._patch(mod_name, attr, lambda fn, n=name, i=info: self._wrap(n, fn, i))
        for mod_name, attr, name in GENERATOR_TARGETS:
            self._patch(mod_name, attr, lambda fn, n=name: self._wrap_generator(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _patch(self, mod_name, attr, make_wrapper) -> None:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))

    def _parent(self, stack: list[int]) -> int | None:
        # Monte Carlo batches run in pool threads; a span opened there with
        # nothing above it belongs to the call the main thread is inside.
        for s in (stack, self._root):
            try:
                return s[-1]
            except IndexError:
                pass
        return None

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
            self.spans.append(Span(sid, name, t0, dur, parent,
                                   info(args, result) if info else None))
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent(self._stack())
            sid = next(self._ids)
            t0 = time.perf_counter()
            busy, count, last = 0.0, 0, None
            gen = fn(*args, **kwargs)
            try:
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - t
                    count += 1
                    last = item.perm
                    yield item
            finally:
                gen.close()
                self.spans.append(Span(sid, name, t0, busy, parent, (count, last)))
        return wrapper


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _slot_members(codebook, w) -> list[set]:
    idx = codebook.weight_class_indices(w)
    return [{codebook.entries[int(i)].components[slot].symbols for i in idx}
            for slot in range(w)]


def layer_metrics(spans, book_labels: dict[str, str]) -> dict[str, float]:
    """Per-layer figures from one traced run's spans.

    book_labels maps a codebook's label to its registry name, so union-bound
    spans land in their `<book>-M<m>` cell.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name):
        return sum(s.dur for s in by_name[name])

    m: dict[str, float] = {}

    murty = by_name["murty_iter"]
    walked = sum(s.info[0] for s in murty)
    m["assignment.murty_iter.assignments"] = walked
    m["assignment.murty_iter.s"] = total("murty_iter")
    m["assignment.murty_iter.assignments_per_s"] = _ratio(walked, m["assignment.murty_iter.s"])

    it = by_name["iterative_sd_detect"]
    iterations = [s.info[0] for s in it]
    fallbacks = hits = it_walked = 0
    members = {}
    for s in it:
        kids = sorted(children[s.sid], key=lambda c: c.sid)
        fallbacks += any(c.name == "bf_sd_detect" for c in kids)
        _, codebook, w = s.info
        key = (id(codebook), w)  # the spans keep every codebook alive
        if key not in members:
            members[key] = _slot_members(codebook, w)
        slots = members[key]
        walks = [c for c in kids if c.name == "murty_iter"]
        for slot, walk in zip(slots, walks):
            count, last = walk.info
            it_walked += count
            hits += last in slot
    m["detectors.iterative_sd_detect.calls"] = len(it)
    m["detectors.iterative_sd_detect.s"] = total("iterative_sd_detect")
    m["detectors.iterative_sd_detect.iterations_mean"] = _ratio(sum(iterations), len(it))
    m["detectors.iterative_sd_detect.iterations_max"] = max(iterations, default=0)
    m["detectors.iterative_sd_detect.fallback_frac"] = _ratio(fallbacks, len(it))
    m["detectors.iterative_sd_detect.member_hit_ratio"] = _ratio(hits, it_walked)

    bb = by_name["bb_detect"]
    m["detectors.bb_detect.calls"] = len(bb)
    m["detectors.bb_detect.s"] = total("bb_detect")
    m["detectors.bb_detect.no_decision_frac"] = _ratio(sum(s.info for s in bb), len(bb))

    mc_s = defaultdict(float)
    mc_blocks = defaultdict(int)
    for s in by_name["monte_carlo_ber"]:
        det, blocks = s.info
        mc_s[det] += s.dur
        mc_blocks[det] += blocks
    for d in DETECTORS:
        m[f"analysis.monte_carlo_ber.s.{d}"] = mc_s[d]
        m[f"analysis.monte_carlo_ber.blocks.{d}"] = mc_blocks[d]
        m[f"analysis.monte_carlo_ber.blocks_per_s.{d}"] = _ratio(mc_blocks[d], mc_s[d])
    # guess draws and counts like every detector but decodes nothing, so its
    # time per block is the harness floor the decode time sits on
    floor = _ratio(mc_s["guess"], mc_blocks["guess"])
    for d in ("ml", "bf"):
        m[f"detectors.{d}.decode_s"] = mc_s[d] - floor * mc_blocks[d] if floor else 0.0

    cells = defaultdict(float)
    for s in by_name["ber_union_bound"]:
        label, M = s.info
        cells[f"{book_labels.get(label, label)}-M{M}"] += s.dur
    for book in BOUND_BOOKS:
        for M in BOUND_M:
            m[f"analysis.ber_union_bound.s.{book}-M{M}"] = cells[f"{book}-M{M}"]

    enum = defaultdict(float)
    for s in by_name["enumerate_weight_w"]:
        L, w, _ = s.info
        enum[f"L{L}" if L == 5 else f"L{L}w{w}"] += s.dur
    for key in ("L5", "L6w1", "L6w2"):
        m[f"codebook.enumerate_weight_w.s.{key}"] = enum[key]
    m["codebook.enumerate_weight_w.entries"] = sum(s.info[2] for s in by_name["enumerate_weight_w"])
    comb = defaultdict(float)
    for s in by_name["combine_codebooks"]:
        comb[s.info] += s.dur
    for L in (5, 6):
        m[f"codebook.combine_codebooks.s.L{L}"] = comb[L]

    for name in ("run_scenario", "codebook_report"):
        m[f"cli.{name}.self_s"] = sum(
            s.dur - sum(c.dur for c in children[s.sid]) for s in by_name[name])
    m["scenarios.parse_scenario.s"] = total("parse_scenario")
    m["scenarios.named_codebook.s"] = total("named_codebook")
    m["channel.build_channel.s"] = total("build_channel")
    return m


def ml_blocks_per_s(spans) -> float:
    """Blocks per second of the ml detector's Monte Carlo spans."""
    ml = [s for s in spans if s.name == "monte_carlo_ber" and s.info[0] == "ml"]
    return _ratio(sum(s.info[1] for s in ml), sum(s.dur for s in ml))
