"""Spans around the public functions of qknet's engine, learn and dnet layers.

The benchmark wraps each public function by setting the module attribute, so
nothing under ``src/`` changes. That reaches every call because ``runner``,
``learn`` and ``engine`` call each other through module globals. A span is
``[name, start, end, parent]``, with ``parent`` the index of the enclosing
span in the same repetition. Spans stay in memory and are written out by the
caller once the run ends.

``engine.feature_states`` and ``engine.gram_from_states`` spans are tagged
``.train`` under ``engine.multi_alignment_grads`` and ``.eval`` under
``learn.score``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TAGGED = ("engine.feature_states", "engine.gram_from_states")
TAG_OF_ANCESTOR = {"engine.multi_alignment_grads": ".train",
                   "learn.score": ".eval"}
P90_SPANS = ("engine.multi_alignment_grads",)  # the others have too few calls
MIN_BEYOND_P90 = 10
MIN_COVERAGE = 0.95
ROOT = "runner.run_problem"


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rows: dict[str, int] = defaultdict(int)
        self.eval_pairs: set[tuple[bytes, bytes]] = set()
        self.clip_offered = 0
        self.clip_clipped = 0

    def label(self, name: str) -> str:
        if name in TAGGED:
            for idx in reversed(self._stack):
                tag = TAG_OF_ANCESTOR.get(self.spans[idx][0])
                if tag:
                    return name + tag
        return name

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def check(self) -> list[str]:
        """Children never outlast their parent; run_problem is >= 95% covered."""
        problems = []
        child = _child_seconds(self.spans)
        for k, (name, start, end, parent) in enumerate(self.spans):
            if child[k] > end - start:
                problems.append(f"children of {name} exceed it")
            if parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"{name} lies outside its parent")
        cover = coverage(self.spans)
        if cover < MIN_COVERAGE:
            problems.append(f"top-level spans cover {cover:.3f} of {ROOT}")
        return problems


def _child_seconds(spans) -> dict[int, float]:
    child: dict[int, float] = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return child


def coverage(spans) -> float:
    root = next(k for k, s in enumerate(spans) if s[0] == ROOT)
    return _child_seconds(spans)[root] / (spans[root][2] - spans[root][1])


def _count_feature_rows(tracer, label, args):
    x = np.atleast_2d(np.asarray(args["x"], dtype=float))
    tracer.rows[label] += len(x)
    if label.endswith(".eval"):
        theta = np.asarray(args["theta"], dtype=float)
        thetas = np.broadcast_to(theta, (len(x), theta.shape[-1]))
        tracer.eval_pairs.update(
            (t.tobytes(), r.tobytes()) for t, r in zip(thetas, x))


def _count_backward_rows(tracer, label, args):
    tracer.rows[label] += len(args["cost_ops"])


def _count_clipped(tracer, label, args):
    tracer.clip_offered += 1
    if float(np.linalg.norm(np.asarray(args["v"], dtype=float))) > args["tau"]:
        tracer.clip_clipped += 1


HOOKS = {"engine.feature_states": _count_feature_rows,
         "engine.backward": _count_backward_rows,
         "dnet.clip": _count_clipped}


def _traced(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = tracer.label(name)
        if hook:
            hook(tracer, label, signature.bind(*args, **kwargs).arguments)
        with tracer.span(label):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer, engine, learn, dnet):
    """Wrap every public function of the three layers for one repetition."""
    targets = []
    for module in (engine, learn, dnet):
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                targets.append((module, attr, f"{layer}.{attr}"))
    targets.append((dnet.Topology, "neighbors", "dnet.Topology.neighbors"))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, _traced(tracer, name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _durations(tracers, name: str) -> list[float]:
    return [end - start for t in tracers for n, start, end, _ in t.spans
            if n == name]


def _p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def enough_samples(tracers) -> bool:
    return all(_p90(_durations(tracers, name))[1] >= MIN_BEYOND_P90
               for name in P90_SPANS)


def _repetition_metrics(tracer: Tracer, layers: int) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child = _child_seconds(tracer.spans)
    for k, (name, start, end, _) in enumerate(tracer.spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child[k]
    fs_train, fs_eval = "engine.feature_states.train", "engine.feature_states.eval"
    rows_train, rows_eval = tracer.rows[fs_train], tracer.rows[fs_eval]
    m = {
        "engine.feature_states.train.s": total[fs_train],
        "engine.feature_states.train.rows": rows_train,
        "engine.backward.s": total["engine.backward"],
        "engine.backward.rows": tracer.rows["engine.backward"],
        "engine.multi_alignment_grads.calls": calls["engine.multi_alignment_grads"],
        "engine.multi_alignment_grads.self_s": self_s["engine.multi_alignment_grads"],
        "engine.feature_states.eval.s": total[fs_eval],
        "engine.feature_states.eval.rows": rows_eval,
        "engine.feature_states.eval.redundancy": rows_eval / len(tracer.eval_pairs),
        "engine.feature_states.us_per_row_layer":
            1e6 * (total[fs_train] + total[fs_eval])
            / ((rows_train + rows_eval) * layers),
        "engine.train_test_grams.calls": calls["engine.train_test_grams"],
        "engine.train_test_grams.s": total["engine.train_test_grams"],
        "engine.gram_from_states.train.s": total["engine.gram_from_states.train"],
        "engine.gram_from_states.eval.s": total["engine.gram_from_states.eval"],
        "learn.score.calls": calls["learn.score"],
        "learn.score.self_s": self_s["learn.score"],
        "learn.fit_ridge.calls": calls["learn.fit_ridge"],
        "learn.fit_ridge.s": total["learn.fit_ridge"],
        "dnet.clip.calls": tracer.clip_offered,
        "dnet.clip.clipped": tracer.clip_clipped,
        "dnet.clip.clipped_ratio": (tracer.clip_clipped / tracer.clip_offered
                                    if tracer.clip_offered else 0.0),
        "dnet.Topology.neighbors.calls": calls["dnet.Topology.neighbors"],
        "dnet.consensus_distance.s": total["dnet.consensus_distance"],
        "runner.run_problem.self_s": self_s[ROOT],
        "runner.write_outputs.s": total["runner.write_outputs"],
        "trace.coverage": coverage(tracer.spans),
    }
    for name in ("aggregate_plain", "aggregate_robust", "attack_gaussian"):
        m[f"dnet.{name}.calls"] = calls[f"dnet.{name}"]
        m[f"dnet.{name}.s"] = total[f"dnet.{name}"]
    return m


def layer_metrics(tracers, layers: int) -> dict[str, float]:
    """Per-repetition medians over the traced repetitions, plus latencies
    in ms over every call of every traced repetition."""
    per_rep = [_repetition_metrics(t, layers) for t in tracers]
    out = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    for name in ("engine.multi_alignment_grads", "learn.score"):
        out[f"{name}.ms.p50"] = 1e3 * statistics.median(_durations(tracers, name))
    for name in P90_SPANS:
        out[f"{name}.ms.p90"] = 1e3 * _p90(_durations(tracers, name))[0]
    return out
