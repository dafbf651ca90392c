"""Spans around the calls into each irreducia module, recorded from outside
the package.

The traced run replaces selected module attributes with wrappers that
record one span per call: name, start, end, parent span and input index.
Spans live in compact arrays while the run lasts and are written out when it
ends. The wrappers are removed afterwards, so untraced runs measure the
unpatched program.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

NO_TAG, FIRED, RAISED = 0, 1, 2

_FIELDS = (
    ("name_id", "H"),
    ("start", "q"),
    ("end", "q"),
    ("parent", "i"),
    ("input", "i"),
    ("tag", "b"),
)


class Tracer:
    """Span recorder. A span opened while no other is open is a root span;
    each root span starts a new input index, and nested spans inherit it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self.errors: Counter = Counter()  # (span name, exception class) -> count
        self._stack: list[int] = []
        self._roots = 0
        self._patches: list[tuple[object, object, object, bool]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        if self._stack:
            parent = self._stack[-1]
            index = self.input[parent]
        else:
            parent = -1
            index = self._roots
            self._roots += 1
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.input.append(index)
        self.tag.append(NO_TAG)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, tag: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self.tag[idx] = tag

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark-side code."""
        idx = self._open(self._intern(name))
        try:
            yield
        except BaseException as exc:
            self._close(idx, RAISED)
            self.errors[(name, type(exc).__name__)] += 1
            raise
        self._close(idx, NO_TAG)

    def wrap(self, fn, name: str, *, criterion: bool = False):
        """fn with a span per call. For a criterion the span is tagged
        FIRED when the returned outcome reached a conclusion."""
        name_id = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, RAISED)
                self.errors[(name, type(exc).__name__)] += 1
                raise
            self._close(idx, FIRED if criterion and result.conclusion.fired() else NO_TAG)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, key: str, name: str, *, criterion: bool = False) -> None:
        """Replace owner.key (or owner[key] for a dict) with a traced wrapper."""
        is_item = isinstance(owner, dict)
        original = owner[key] if is_item else getattr(owner, key)
        wrapped = self.wrap(original, name, criterion=criterion)
        if is_item:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original, is_item))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextmanager
    def installed(self, install) -> Iterator["Tracer"]:
        """Run install(self) to patch, and restore on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then each field's raw
        array in header order, gzip-compressed."""
        header = {
            "names": self.names,
            "fields": [[field, code, len(getattr(self, field))] for field, code in _FIELDS],
            "errors": [[name, exc, n] for (name, exc), n in sorted(self.errors.items())],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write: (header, field name -> array)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code, n in header["fields"]:
            arr = array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            fields[field] = arr
    return header, fields


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> list[int]:
    """Each span's duration minus the part of its interval that the union
    of its child spans covers (children clipped to the parent)."""
    n = len(start)
    covered = [0] * n
    reach: dict[int, int] = {}  # parent -> end of the child union so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# ---------------------------------------------------------------------------
# what the traced run patches


def install_program(tracer: Tracer) -> None:
    """Wrap the calls into criteria, numtheory, rootloc, oracle (and the poly
    helpers it calls) and audit."""
    from irreducia import audit, criteria, numtheory, oracle, rootloc

    for name in list(criteria.CRITERIA):
        tracer.patch(criteria.CRITERIA, name, f"criteria.{name}", criterion=True)
    tracer.patch(criteria, "analyze", "criteria.analyze")
    tracer.patch(numtheory, "factorize", "numtheory.factorize")
    tracer.patch(numtheory, "positive_divisors", "numtheory.positive_divisors")
    tracer.patch(rootloc, "certify_outside_disk", "rootloc.certify_outside_disk")
    tracer.patch(rootloc, "numeric_roots", "rootloc.numeric_roots")
    tracer.patch(oracle, "factor", "oracle.factor")
    tracer.patch(oracle, "rational_roots", "poly.rational_roots")
    tracer.patch(oracle, "divides_exactly", "poly.divides_exactly")
    tracer.patch(audit, "audit_one", "audit.audit_one")
    tracer.patch(audit, "cor1_best_j", "audit.cor1_best_j")


def install_merge(tracer: Tracer) -> None:
    """Wrap only AuditResult.merge, which audit_corpus calls in the parent
    process; forked workers then inherit no other wrapper."""
    from irreducia import audit

    tracer.patch(audit.AuditResult, "merge", "audit.merge")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

CRITERION_NAMES = (
    "constant_term",
    "dominant_coefficient",
    "eisenstein_generalized",
    "leading_coeff",
    "middle_prime_power",
    "perron_nonmonic",
    "weintraub",
)
SHARE_LAYERS = ("criteria", "numtheory", "rootloc", "oracle")
FACTOR_CLASS_NAMES = ("rand_c3", "rand_c20", "prod_4x4", "prod_3x3x2")


def span_metrics(tracer: Tracer, classes: Sequence[str]) -> dict[str, float]:
    """Calls, self time, fire ratios and layer shares from the recorded spans.
    ``classes[i]`` is the input class of input index i. A layer's inclusive
    share is the time inside its outermost spans over the time inside all
    root spans."""
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    fired: Counter = Counter()
    by_parent: Counter = Counter()  # (name, parent layer) -> calls
    oracle_by_class: Counter = Counter()
    inclusive_ns: Counter = Counter()
    root_ns = 0
    for i, name_id in enumerate(tracer.name_id):
        name = names[name_id]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_ns[name] += selfs[i]
        if tracer.tag[i] == FIRED:
            fired[name] += 1
        p = tracer.parent[i]
        parent_layer = names[tracer.name_id[p]].split(".", 1)[0] if p >= 0 else None
        if p < 0:
            root_ns += tracer.end[i] - tracer.start[i]
        by_parent[(name, parent_layer)] += 1
        if parent_layer != layer:  # outermost span of its layer
            inclusive_ns[layer] += tracer.end[i] - tracer.start[i]
        if name == "oracle.factor":
            oracle_by_class[classes[tracer.input[i]]] += selfs[i]

    def s(ns: int) -> float:
        return ns / 1e9

    out: dict[str, float] = {}
    for crit in CRITERION_NAMES:
        key = f"criteria.{crit}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = s(self_ns[key])
        out[f"{key}.fire_ratio"] = fired[key] / calls[key] if calls[key] else 0.0
    out["criteria.analyze.self_s"] = s(self_ns["criteria.analyze"])
    inputs = max(len(classes), 1)
    out["numtheory.factorize.calls_per_poly"] = calls["numtheory.factorize"] / inputs
    out["numtheory.factorize.self_s"] = s(self_ns["numtheory.factorize"])
    out["numtheory.positive_divisors.calls"] = calls["numtheory.positive_divisors"]
    out["numtheory.positive_divisors.self_s"] = s(self_ns["numtheory.positive_divisors"])
    cert = "rootloc.certify_outside_disk"
    out[f"{cert}.calls"] = calls[cert]
    out[f"{cert}.self_s"] = s(self_ns[cert])
    out[f"{cert}.from_criteria"] = by_parent[(cert, "criteria")]
    out[f"{cert}.from_audit"] = by_parent[(cert, "audit")]
    out["rootloc.numeric_roots.calls"] = calls["rootloc.numeric_roots"]
    out["rootloc.numeric_roots.self_s"] = s(self_ns["rootloc.numeric_roots"])
    out["rootloc.nonconvergences"] = tracer.errors[
        ("rootloc.numeric_roots", "NonConvergenceError")
    ]
    out["oracle.factor.calls"] = calls["oracle.factor"]
    out["oracle.factor.self_s"] = s(self_ns["oracle.factor"])
    for cls in FACTOR_CLASS_NAMES:
        out[f"oracle.factor.{cls}.self_s"] = s(oracle_by_class[cls])
    out["oracle.limit_errors"] = tracer.errors[("oracle.factor", "OracleLimitError")]
    out["poly.rational_roots.self_s"] = s(self_ns["poly.rational_roots"])
    out["poly.divides_exactly.calls"] = calls["poly.divides_exactly"]
    out["poly.divides_exactly.self_s"] = s(self_ns["poly.divides_exactly"])
    out["audit.audit_one.self_s"] = s(self_ns["audit.audit_one"])
    out["audit.cor1_best_j.calls"] = calls["audit.cor1_best_j"]
    out["audit.cor1_best_j.self_s"] = s(self_ns["audit.cor1_best_j"])
    out["audit.merge.self_s"] = s(self_ns["audit.merge"])
    for layer in SHARE_LAYERS:
        out[f"{layer}.inclusive_share"] = inclusive_ns[layer] / root_ns if root_ns else 0.0
    out["trace.spans"] = len(tracer)
    return out
