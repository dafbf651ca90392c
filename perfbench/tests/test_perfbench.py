"""Tests of the benchmark itself: span arithmetic, the tail rule, wrapper
removal and seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from irreducia import audit, criteria, numtheory, oracle, rootloc  # noqa: E402
from irreducia.poly import Polynomial  # noqa: E402

from perfbench import inputs, tracing  # noqa: E402
from perfbench.measure import percentile, tail_percentile  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children():
    # root [0, 100) with children [10, 30) and [50, 90); the second child has
    # a grandchild [60, 70)
    start = [0, 10, 50, 60]
    end = [100, 30, 90, 70]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [40, 20, 30, 10]


def test_self_time_counts_overlapping_children_once():
    # children [10, 50) and [30, 60) overlap on [30, 50): they cover 50 units
    start = [0, 10, 30]
    end = [100, 50, 60]
    parent = [-1, 0, 0]
    assert tracing.self_times(start, end, parent)[0] == 50


def test_self_time_clips_children_to_parent():
    start = [0, 80]
    end = [100, 130]
    parent = [-1, 0]
    assert tracing.self_times(start, end, parent) == [80, 50]


def test_self_time_ignores_input_order():
    # same tree as the first test, spans listed out of start order
    start = [60, 50, 0, 10]
    end = [70, 90, 100, 30]
    parent = [1, 2, -1, 2]
    assert tracing.self_times(start, end, parent) == [10, 30, 40, 20]


# -- percentiles --------------------------------------------------------------


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5
    assert percentile([3, 1, 2], 100) == 3


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (10**6, 99.0),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_follows_the_ladder():
    assert tail_percentile(500, ladder=(95.0, 80.0)) == 95.0
    assert tail_percentile(100, ladder=(95.0, 80.0)) == 80.0
    assert tail_percentile(100, ladder=(95.0,), min_beyond=5) == 95.0


def test_speed_scale_uses_the_nearest_probes():
    probe = SpeedProbe(nominal_s=1.0)
    probe.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    probe.durations = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert probe.scale_at(0.5) == 1.0  # median of the first five
    assert probe.scale_at(6.5) == 0.5  # median of the last five
    assert probe.scale() == 1 / 1.5


# -- tracer -------------------------------------------------------------------


def _patched_targets():
    return [
        *criteria.CRITERIA.values(),
        criteria.analyze,
        numtheory.factorize,
        numtheory.positive_divisors,
        rootloc.certify_outside_disk,
        rootloc.numeric_roots,
        oracle.factor,
        oracle.rational_roots,
        oracle.divides_exactly,
        audit.audit_one,
        audit.cor1_best_j,
        audit.AuditResult.merge,
    ]


def test_wrappers_are_restored_after_traced_run():
    before = _patched_targets()
    tracer = tracing.Tracer()
    with tracer.installed(tracing.install_program):
        with tracer.installed(tracing.install_merge):
            during = _patched_targets()
            criteria.analyze(Polynomial([2, 0, 1]), criteria.AnalyzeConfig(oracle="on"))
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _patched_targets()))
    assert len(tracer) > 0


def test_wrappers_are_restored_when_the_run_raises():
    before = _patched_targets()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(tracing.install_program):
            criteria.analyze(Polynomial([]))
    assert all(a is b for a, b in zip(before, _patched_targets()))
    assert tracer.errors[("criteria.analyze", "ValueError")] == 1


def test_spans_link_parents_and_inputs(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed(tracing.install_program):
        for f in (Polynomial([2, 0, 1]), Polynomial([6, 1, 1])):
            criteria.analyze(f, criteria.AnalyzeConfig(oracle="off"))
    names = [tracer.names[i] for i in tracer.name_id]
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [names[i] for i in roots] == ["criteria.analyze", "criteria.analyze"]
    assert [tracer.input[i] for i in roots] == [0, 1]
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.input[i] == tracer.input[p]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    # z^2 + 2 is Eisenstein at 2, so that criterion's span is tagged fired
    eis = names.index("criteria.eisenstein_generalized")
    assert tracer.tag[eis] == tracing.FIRED

    path = tmp_path / "spans.bin.gz"
    tracer.write(path)
    header, fields = tracing.read_spans(path)
    assert header["names"] == tracer.names
    assert list(fields["start"]) == list(tracer.start)
    assert list(fields["parent"]) == list(tracer.parent)


def test_span_metrics_split_certificates_by_caller():
    tracer = tracing.Tracer()
    f = Polynomial([12, 1, 1])
    with tracer.installed(tracing.install_program):
        audit.audit_one(f, audit.AuditOptions(), audit.AuditResult())
    m = tracing.span_metrics(tracer, ["corpus"])
    assert m["criteria.constant_term.calls"] == 1
    assert m["rootloc.certify_outside_disk.from_criteria"] >= 1
    assert m["rootloc.certify_outside_disk.from_audit"] >= 1
    assert (
        m["rootloc.certify_outside_disk.from_criteria"]
        + m["rootloc.certify_outside_disk.from_audit"]
        == m["rootloc.certify_outside_disk.calls"]
    )


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    build = inputs.GENERATORS[workload]
    first = build(3, 1)
    assert first == build(3, 1)
    assert first != build(4, 1)


def test_sweep_sample_is_not_a_prefix():
    # gen_exhaustive is ordered by degree; a random sample in random order
    # is not
    sample = inputs.sweep_inputs(0, 1)
    degrees = [it.poly.degree for it in sample]
    assert degrees != sorted(degrees)
    assert {3, 4, 5} <= set(degrees)
    assert len({it.poly for it in sample}) == len(sample)


def test_typed_poly_reads_like_user_input():
    assert inputs.typed_poly(Polynomial([4, 4, 0, 1])) == "z^3 + 4z + 4"
    assert inputs.typed_poly(Polynomial([-1, 0, -3, 2])) == "2z^3 - 3z^2 - 1"


# -- entry point --------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
