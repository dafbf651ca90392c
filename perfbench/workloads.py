"""The four workloads: a timed pass over the seeded inputs, correctness
gates checked after timing, and a traced pass for the per-layer numbers.

Each workload is a single-process closed loop with one caller: the next
operation starts when the previous one has returned. Only the second phase
of ``sweep`` runs ``audit_corpus`` with ``jobs = nproc``. Timings are
reported at the reference speed of ``speed.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from irreducia import audit, cli, criteria, numtheory, oracle
from irreducia.criteria import NUMERIC_CONDITIONAL, AnalyzeConfig
from irreducia.rootloc import CertificateMode

from . import inputs as inputs_mod
from . import tracing
from .inputs import Item
from .measure import median, percentile, tail_percentile
from .speed import BARE_NOMINAL_S, WINDOW, SpeedProbe, bare_interpreter

SWEEP_CHUNK = 250  # polynomials per timed serial audit_corpus call
ANALYZE_DEADLINE_S = 2.0
ANALYZE_ORACLE_CHECKS = 40  # small-class inputs re-run with the oracle on
CLI_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
RATE_BATCHES = 10
PROBE_REPEATS = 5
DISK_CRITERIA = ("constant_term", "leading_coeff")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def clear_factor_cache() -> None:
    """Empty numtheory's factorization cache so a timed pass starts cold."""
    numtheory._factor_positive.cache_clear()


def factor_cache_info():
    return numtheory._factor_positive.cache_info()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def irreducia_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class DeadlineExceeded(Exception):
    """A call ran past its per-call deadline."""


@contextlib.contextmanager
def alarm_handler():
    def expire(signum, frame):
        raise DeadlineExceeded("per-call deadline passed")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_with_deadline(seconds: float, fn, *args):
    """fn(*args), raising DeadlineExceeded after ``seconds``. Needs
    alarm_handler() to be active."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Context:
    seed: int
    seconds: int
    root: Path
    jobs: int
    record: dict  # perfbench/baseline.json


@dataclass
class Pass:
    """One closed-loop pass: each operation's duration and midpoint, its
    output (None where it raised) and the reference probes taken around it."""

    probe: SpeedProbe
    times_s: list[float] = field(default_factory=list)
    stamps: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    sizes: list[int] | None = None  # items per operation when not 1 each
    extra: dict = field(default_factory=dict)

    def scaled(self) -> list[float]:
        """Each operation's duration at the reference speed."""
        return [t * self.probe.scale_at(s) for t, s in zip(self.times_s, self.stamps)]

    def latencies(self) -> list[float]:
        """Scaled time per item of the operations that returned."""
        sizes = self.sizes or [1] * len(self.times_s)
        return [
            t / sizes[i] for i, t in enumerate(self.scaled()) if i not in self.failures
        ]

    def busy_s(self) -> float:
        return sum(self.scaled())

    def batch_rate(self, batches: int = RATE_BATCHES) -> float:
        """Median over consecutive equal batches of operations of the items
        done per second of scaled time. One slow input moves one batch, not
        the median."""
        scaled = self.scaled()
        sizes = self.sizes or [1] * len(scaled)
        n = len(scaled)
        bounds = [round(k * n / batches) for k in range(batches + 1)]
        return median([
            sum(sizes[lo:hi]) / sum(scaled[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ])


def closed_loop(items, call, probe: SpeedProbe | None = None) -> Pass:
    """call(item) for each item in order, timing each call and probing the
    machine speed between calls (with the in-process reference by default)."""
    probe = probe or SpeedProbe()
    probe.probe(WINDOW)
    p = Pass(probe)
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            out = call(item)
        except Exception as exc:
            p.failures[i] = f"{type(exc).__name__}: {exc}"
            out = None
        t1 = time.perf_counter()
        p.times_s.append(t1 - t0)
        p.stamps.append((t0 + t1) / 2)
        p.outputs.append(out)
        probe.tick()
    probe.probe(WINDOW)
    return p


def timed_once(fn) -> tuple[float, object]:
    """fn() and its duration at the reference speed, from probes taken just
    before and after."""
    probe = SpeedProbe()
    probe.probe(WINDOW)
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    probe.probe(WINDOW)
    return wall * probe.scale(), out


@dataclass
class Check:
    """Gate results. ``problems`` are wrong outputs and run-level mismatches,
    which make the run incorrect; ``errors`` are operations that raised,
    missed a deadline or exited nonzero. Both count as failed operations."""

    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    unindexed: int = 0  # failed operations the program reports only as a count

    def fail(self, index: int, reason: str) -> None:
        self.failed.add(index)
        if len(self.errors) < 20:
            self.errors.append(f"input {index}: {reason}")

    def wrong(self, index: int, reason: str) -> None:
        self.failed.add(index)
        if len(self.problems) < 20:
            self.problems.append(f"input {index}: {reason}")

    def failed_count(self) -> int:
        return len(self.failed) + self.unindexed


def _recorded(ctx: Context, workload: str) -> dict | None:
    """The recorded fingerprint for this workload, if it was taken at this
    run's seed and length."""
    rec = ctx.record.get("fingerprints", {}).get(workload)
    if rec and rec["seed"] == ctx.seed and rec["seconds"] == ctx.seconds:
        return rec
    return None


def _traced_result(traced: Pass, untraced: Pass, info, problems, metrics=None) -> dict:
    return {
        "overhead": traced.busy_s() / untraced.busy_s(),
        "problems": problems,
        "cache": info,
        "metrics": metrics or {},
    }


# ---------------------------------------------------------------------------
# sweep


def audit_fingerprint(result: audit.AuditResult) -> dict:
    fp = {
        "total": result.total,
        "oracle_calls": result.oracle_calls,
        "oracle_skipped": result.oracle_skipped,
        "violations": result.violation_count(),
        "cor1_checked": result.cor1_checked,
        "rootloc_checked": result.rootloc_checked,
        "nonconvergences": len(result.nonconvergences),
    }
    for name in sorted(result.criteria):
        s = result.criteria[name]
        fp[f"{name}.fired"] = s.fired
        fp[f"{name}.sound"] = s.sound
        fp[f"{name}.vacuous"] = s.vacuous
        fp[f"{name}.unchecked"] = s.unchecked
    return fp


def _chunks(items: list[Item]) -> list[list]:
    return [
        [it.poly for it in items[i : i + SWEEP_CHUNK]] for i in range(0, len(items), SWEEP_CHUNK)
    ]


def _serial_audit(chunks: list[list]) -> Pass:
    clear_factor_cache()
    p = closed_loop(chunks, lambda chunk: audit.audit_corpus(chunk, jobs=1))
    p.sizes = [len(c) for c in chunks]
    return p


def _merged(parts) -> audit.AuditResult:
    total = audit.AuditResult()
    for part in parts:
        if part is not None:
            total.merge(part)
    return total


class Sweep:
    name = "sweep"

    def timed(self, items: list[Item], ctx: Context) -> Pass:
        chunks = _chunks(items)
        p = _serial_audit(chunks)
        polys = [it.poly for it in items]
        clear_factor_cache()
        parallel_s, parallel = timed_once(lambda: audit.audit_corpus(polys, jobs=ctx.jobs))
        p.extra.update(chunks=chunks, parallel=parallel, parallel_s=parallel_s)
        return p

    def check(self, items: list[Item], p: Pass, ctx: Context) -> Check:
        check = Check()
        for k, reason in p.failures.items():
            for i in range(k * SWEEP_CHUNK, min((k + 1) * SWEEP_CHUNK, len(items))):
                check.fail(i, reason)
        if check.failed:
            return check
        serial = audit_fingerprint(_merged(p.outputs))
        parallel = audit_fingerprint(p.extra["parallel"])
        if serial != parallel:
            check.problems.append(f"serial and parallel audits differ: {serial} != {parallel}")
        for key in ("violations", "oracle_skipped", "nonconvergences"):
            if serial[key]:
                check.problems.append(f"sweep has {serial[key]} {key}")
        # every violation, skip and non-convergence is one polynomial failing
        check.unindexed += serial["violations"] + serial["oracle_skipped"] + serial["nonconvergences"]
        if serial["total"] != len(items):
            check.problems.append(f"audited {serial['total']} of {len(items)} polynomials")
        rec = _recorded(ctx, self.name)
        if rec is not None:
            for key, want in rec["fingerprint"].items():
                if serial.get(key) != want:
                    check.problems.append(f"fingerprint {key}: {serial.get(key)} != recorded {want}")
        return check

    def report(self, items: list[Item], p: Pass, ctx: Context) -> list[str]:
        n = len(items)
        fp = audit_fingerprint(_merged(p.outputs))
        keys = ("total", "oracle_calls", "cor1_checked", "rootloc_checked", "middle_prime_power.fired")
        lines = [
            f"sweep_polys_per_s = {n / p.busy_s():.1f} 1/s (jobs=1, n={n})",
            f"sweep_parallel_polys_per_s = {n / p.extra['parallel_s']:.1f} 1/s "
            f"(jobs={ctx.jobs}, n={n}; scaled by probes before and after only)",
            "fingerprint = " + json.dumps({k: fp.get(k, 0) for k in keys}),
        ]
        return lines

    def traced(self, items: list[Item], ctx: Context, p: Pass, tracer: tracing.Tracer) -> dict:
        polys = [it.poly for it in items]
        merges = tracing.Tracer()
        clear_factor_cache()
        with merges.installed(tracing.install_merge):
            audit.audit_corpus(polys, jobs=ctx.jobs)
        with tracer.installed(tracing.install_program):
            traced = _serial_audit(p.extra["chunks"])
        info = factor_cache_info()
        problems = []
        if audit_fingerprint(_merged(traced.outputs)) != audit_fingerprint(_merged(p.outputs)):
            problems.append("traced sweep fingerprint differs from the untraced one")
        merge_ns = sum(tracing.self_times(merges.start, merges.end, merges.parent))
        return _traced_result(traced, p, info, problems, {
            "audit.merge.self_s": merge_ns / 1e9,
            "audit.parallel_efficiency": p.busy_s() / (ctx.jobs * p.extra["parallel_s"]),
            "audit.parallel_polys_per_s": len(items) / p.extra["parallel_s"],
        })


# ---------------------------------------------------------------------------
# analyze-mix

_ANALYZE_CONFIGS = {
    False: AnalyzeConfig(oracle="off"),
    True: AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC),
}


def _analyze_pass(items: list[Item]) -> Pass:
    clear_factor_cache()
    with alarm_handler():
        return closed_loop(
            items,
            lambda it: call_with_deadline(
                ANALYZE_DEADLINE_S, criteria.analyze, it.poly, _ANALYZE_CONFIGS[it.numeric]
            ),
        )


def reports_digest(reports) -> str:
    """sha256 over report_to_json of each report in order ("failed" for a
    call that did not return)."""
    h = hashlib.sha256()
    for report in reports:
        h.update((cli.report_to_json(report) if report is not None else "failed").encode())
        h.update(b"\n")
    return h.hexdigest()


def _class_lines(items: list[Item], p: Pass, classes, name: str, unit: str, factor: float):
    lines = []
    scaled = p.scaled()
    for cls in classes:
        lat = [scaled[i] for i, it in enumerate(items) if it.cls == cls and i not in p.failures]
        if lat:
            lines.append(
                f"{name}.{cls} = {factor * median(lat):.4g} {unit}, "
                f"max {factor * max(lat):.4g} {unit} (n={len(lat)})"
            )
    return lines


class AnalyzeMix:
    name = "analyze-mix"

    def timed(self, items: list[Item], ctx: Context) -> Pass:
        return _analyze_pass(items)

    def check(self, items: list[Item], p: Pass, ctx: Context) -> Check:
        check = Check()
        for index, reason in p.failures.items():
            check.fail(index, reason)
        for i, (it, report) in enumerate(zip(items, p.outputs)):
            if report is None:
                continue
            for o in report.outcomes:
                numeric = o.certificate_mode == NUMERIC_CONDITIONAL
                if numeric != (it.numeric and o.criterion in DISK_CRITERIA and o.conclusion.fired()):
                    check.wrong(i, f"{o.criterion} certificate mode {o.certificate_mode}")
        small = [i for i, it in enumerate(items) if it.cls == "small" and p.outputs[i] is not None]
        for i in small[:ANALYZE_ORACLE_CHECKS]:
            try:
                audited = criteria.analyze(items[i].poly, AnalyzeConfig(oracle="on"))
            except criteria.SoundnessError as exc:
                check.wrong(i, f"oracle cross-check: {exc}")
                continue
            except Exception as exc:
                check.fail(i, f"oracle cross-check: {type(exc).__name__}: {exc}")
                continue
            if audited.outcomes != p.outputs[i].outcomes:
                check.wrong(i, "outcomes change when the oracle is on")
        p.extra["digest"] = reports_digest(p.outputs)
        rec = _recorded(ctx, self.name)
        if rec is not None and rec["digest"] != p.extra["digest"]:
            check.problems.append(f"report digest {p.extra['digest']} != recorded {rec['digest']}")
        return check

    def report(self, items: list[Item], p: Pass, ctx: Context) -> list[str]:
        classes = [c[0] for c in inputs_mod.ANALYZE_CLASSES]
        lines = _class_lines(items, p, classes, "analyze_p50_us", "us", 1e6)
        lines.append(f"report_digest = {p.extra['digest']}")
        lines.append(f"analyze_calls_per_s = {len(items) / p.busy_s():.2f} 1/s (all calls)")
        return lines

    def traced(self, items: list[Item], ctx: Context, p: Pass, tracer: tracing.Tracer) -> dict:
        with tracer.installed(tracing.install_program):
            traced = _analyze_pass(items)
        info = factor_cache_info()
        problems = []
        if traced.failures.keys() != p.failures.keys() or any(
            a is not None and a.outcomes != b.outcomes for a, b in zip(traced.outputs, p.outputs)
        ):
            problems.append("traced analyze outcomes differ from the untraced ones")
        return _traced_result(traced, p, info, problems)


# ---------------------------------------------------------------------------
# factor


def _factor_pass(items: list[Item]) -> Pass:
    clear_factor_cache()
    return closed_loop(items, lambda it: oracle.factor(it.poly))


class Factor:
    name = "factor"

    def timed(self, items: list[Item], ctx: Context) -> Pass:
        return _factor_pass(items)

    def check(self, items: list[Item], p: Pass, ctx: Context) -> Check:
        check = Check()
        for index, reason in p.failures.items():
            check.fail(index, reason)
        for i, (it, result) in enumerate(zip(items, p.outputs)):
            if result is None:
                continue
            if not oracle.verify(result, it.poly):
                check.wrong(i, "oracle.verify rejects the factorization")
            elif result.nonconstant_factor_count() < it.parts:
                check.wrong(i, f"{result.nonconstant_factor_count()} factors, built from {it.parts}")
        return check

    def report(self, items: list[Item], p: Pass, ctx: Context) -> list[str]:
        classes = [c[0] for c in inputs_mod.FACTOR_CLASSES]
        lines = _class_lines(items, p, classes, "factor_p50_ms", "ms", 1e3)
        lines.append(f"factor_polys_per_s = {len(items) / p.busy_s():.3f} 1/s (all inputs)")
        return lines

    def traced(self, items: list[Item], ctx: Context, p: Pass, tracer: tracing.Tracer) -> dict:
        with tracer.installed(tracing.install_program):
            traced = _factor_pass(items)
        info = factor_cache_info()
        problems = []
        if traced.outputs != p.outputs:
            problems.append("traced factorizations differ from the untraced ones")
        return _traced_result(traced, p, info, problems)


# ---------------------------------------------------------------------------
# cli-cold


def _main_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _run(cmd: list[str], root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )


def _wall_of(cmd: list[str], root: Path, env: dict) -> float:
    """Raw wall time of a subprocess that must succeed."""
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


class CliCold:
    name = "cli-cold"
    allowed_codes = {"analyze": {cli.EXIT_OK, cli.EXIT_NO_CONCLUSION}, "factor": {cli.EXIT_OK}}

    def timed(self, items: list[Item], ctx: Context) -> Pass:
        env = irreducia_env(ctx.root)
        cmd = [sys.executable, "-m", "irreducia"]
        probe = SpeedProbe(bare_interpreter, BARE_NOMINAL_S, interval_s=0.0)
        return closed_loop(items, lambda it: _run(cmd + list(it.argv), ctx.root, env), probe)

    def check(self, items: list[Item], p: Pass, ctx: Context) -> Check:
        check = Check()
        for index, reason in p.failures.items():
            check.fail(index, reason)
        for i, (it, proc) in enumerate(zip(items, p.outputs)):
            if proc is None:
                continue
            if proc.returncode not in self.allowed_codes[it.cls]:
                check.fail(i, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            code, text = _main_in_process(it.argv)
            try:
                schema = json.loads(proc.stdout).get("schema")
            except json.JSONDecodeError:
                schema = None
            if schema != cli.SCHEMA:
                check.wrong(i, f"schema {schema!r}")
            elif (proc.returncode, proc.stdout) != (code, text):
                check.wrong(i, "output differs from in-process cli.main")
        return check

    def report(self, items: list[Item], p: Pass, ctx: Context) -> list[str]:
        return [f"cli_calls_per_s = {len(items) / p.busy_s():.3f} 1/s (all calls)"]

    def traced(self, items: list[Item], ctx: Context, p: Pass, tracer: tracing.Tracer) -> dict:
        env = irreducia_env(ctx.root)
        bare = [_wall_of([sys.executable, "-c", "pass"], ctx.root, env) for _ in range(PROBE_REPEATS)]
        imported = [
            _wall_of([sys.executable, "-c", "import irreducia"], ctx.root, env)
            for _ in range(PROBE_REPEATS)
        ]
        clear_factor_cache()
        untraced = closed_loop(items, lambda it: _main_in_process(it.argv))

        def traced_main(it):
            with tracer.span("cli.main"):
                return _main_in_process(it.argv)

        clear_factor_cache()
        with tracer.installed(tracing.install_program):
            traced = closed_loop(items, traced_main)
        info = factor_cache_info()
        problems = []
        if traced.outputs != untraced.outputs or traced.failures or untraced.failures:
            problems.append("traced cli.main output differs from untraced")
        return _traced_result(traced, untraced, info, problems, {
            "cli.interpreter_ms": 1e3 * median(bare),
            "cli.import_ms": 1e3 * (median(imported) - median(bare)),
            "cli.main_ms": 1e3 * median(untraced.scaled()),
        })


WORKLOADS = {w.name: w for w in (Sweep(), AnalyzeMix(), Factor(), CliCold())}

# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    ["corpus.gen_s"]
    + [
        f"criteria.{c}.{m}"
        for c in tracing.CRITERION_NAMES
        for m in ("calls", "self_s", "fire_ratio")
    ]
    + [
        "criteria.analyze.self_s",
        "numtheory.factorize.calls_per_poly",
        "numtheory.factorize.self_s",
        "numtheory.positive_divisors.calls",
        "numtheory.positive_divisors.self_s",
        "numtheory.cache_hit_ratio",
        "rootloc.certify_outside_disk.calls",
        "rootloc.certify_outside_disk.self_s",
        "rootloc.certify_outside_disk.from_criteria",
        "rootloc.certify_outside_disk.from_audit",
        "rootloc.numeric_roots.calls",
        "rootloc.numeric_roots.self_s",
        "rootloc.nonconvergences",
        "oracle.factor.calls",
        "oracle.factor.self_s",
    ]
    + [f"oracle.factor.{c}.self_s" for c in tracing.FACTOR_CLASS_NAMES]
    + [
        "oracle.limit_errors",
        "poly.rational_roots.self_s",
        "poly.divides_exactly.calls",
        "poly.divides_exactly.self_s",
        "audit.audit_one.self_s",
        "audit.cor1_best_j.calls",
        "audit.cor1_best_j.self_s",
        "audit.merge.self_s",
        "audit.parallel_efficiency",
        "audit.parallel_polys_per_s",
        "cli.interpreter_ms",
        "cli.import_ms",
        "cli.main_ms",
    ]
    + [f"{layer}.inclusive_share" for layer in tracing.SHARE_LAYERS]
    + ["trace.spans", "trace.overhead_ratio"]
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_poly"):
        return "calls/poly"
    if name.endswith(("_ratio", "_share", "_efficiency")):
        return "ratio"
    return "count"


def measure_setup(name: str, ctx: Context) -> float:
    """Median duration of fresh interpreters that import irreducia and build
    this workload's inputs, then exit."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")), "--setup-only",
        "--workload", name, "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
    ]
    env = dict(os.environ)
    times = []
    for _ in range(SETUP_REPEATS):
        wall, proc = timed_once(lambda: _run(cmd, ctx.root, env))
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()[-500:]}")
        times.append(wall)
    return median(times)


def run(name: str, ctx: Context, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run. Returns the result object and the report lines."""
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    items = inputs_mod.GENERATORS[name](ctx.seed, ctx.seconds)
    build_s = time.perf_counter() - t0
    setup_s = None if trace else measure_setup(name, ctx)

    p = workload.timed(items, ctx)
    layer = None
    if trace:
        tracer = tracing.Tracer()
        layer = workload.traced(items, ctx, p, tracer)
        tracer.write(ctx.root / ".perfbench_out" / f"spans-{name}-seed{ctx.seed}.bin.gz")
    check = workload.check(items, p, ctx)
    if layer:
        check.problems.extend(layer["problems"])
    lines = workload.report(items, p, ctx)
    ops_per_s = p.batch_rate()

    attempted = len(items)
    lat = p.latencies()
    tail_p = tail_percentile(len(lat))
    if tail_p is None:
        check.problems.append(f"{len(lat)} latencies: too few for a tail percentile")
        tail_p = 100.0
    lines = [
        f"workload = {name}, seed {ctx.seed}, seconds {ctx.seconds}, jobs {ctx.jobs}, "
        f"trace {int(trace)}",
        *lines,
        f"failed_ratio = {check.failed_count() / attempted:.6g} "
        f"({check.failed_count()}/{attempted})",
        f"speed reference = {1e3 * median(p.probe.durations):.3f} ms "
        f"(median of {len(p.probe.durations)}); timings below are scaled to "
        f"{1e3 * p.probe.nominal_s:g} ms",
    ]
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(tracing.span_metrics(tracer, [it.cls for it in items]))
        metrics.update(layer["metrics"])
        info = layer["cache"]
        lookups = info.hits + info.misses
        metrics["numtheory.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        metrics["trace.overhead_ratio"] = layer["overhead"]
        if name == "sweep":
            metrics["corpus.gen_s"] = build_s
        out = {k: {"value": metrics[k], "unit": unit_of(k)} for k in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "p50_ms": 1e3 * percentile(lat, 50.0),
            "tail_ms": 1e3 * percentile(lat, tail_p),
            "peak_rss_mb": peak_rss_mb(),
        }
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        lines += [
            f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS})",
            f"ops_per_s = {ops_per_s:.2f} 1/s (n={attempted})",
            f"p50_ms = {values['p50_ms']:.4f} ms (n={len(lat)})",
            f"tail_ms = {values['tail_ms']:.4f} ms (p{tail_p:g}, n={len(lat)})",
            f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
        ]
    lines.extend(f"failed: {msg}" for msg in check.errors)
    lines.extend(f"problem: {msg}" for msg in check.problems)
    result = {
        "correct": not check.problems,
        "attempted": attempted,
        "failed": check.failed_count(),
        "metrics": out,
    }
    return result, lines
