"""Command-line front end: run analyses, emit reports, factor inputs,
generate corpora, and drive audits. Polynomials are read by poly.parse_poly.

Exit codes: 0 for any conclusion (and clean audits), 1 for input and usage
errors and when the reader closes standard output early (as `| head` does; no
traceback is printed), 2 for audit soundness violations, 3 when every
criterion is inconclusive, 4 when `analyze` finds its strongest conclusion contradicted by the
factorization oracle (a soundness error: a bug, never an input problem).
The JSON report is the stable machine contract ("schema": "irreducia/1");
big integers are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import oracle
from .poly import Polynomial, PolyParseError, _excerpt, parse_poly

if TYPE_CHECKING:  # `factor` must not load the criteria
    from .criteria import AnalysisReport, Conclusion, CriterionOutcome

SCHEMA = "irreducia/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2
EXIT_NO_CONCLUSION = 3
EXIT_SOUNDNESS = 4


def render_coeff_list(f: Polynomial) -> str:
    return ",".join(str(c) for c in f.coeffs) if not f.is_zero() else "0"


def render_factorization(result: oracle.FactorizationResult) -> str:
    parts = []
    if result.content != 1 or not result.factors:
        parts.append(str(result.content))
    for g, mult in result.factors:
        body = f"({g.to_sparse_string().replace(' ', '')})"
        parts.append(body if mult == 1 else f"{body}^{mult}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# JSON report


def _input_to_dict(f: Polynomial) -> dict:
    return {"text": f.to_sparse_string(), "coeffs": [str(c) for c in f.coeffs]}


def _conclusion_to_dict(conclusion: Conclusion) -> dict:
    d: dict = {"kind": conclusion.kind.value}
    if conclusion.bound is not None:
        d["bound"] = conclusion.bound
    return d


def _outcome_to_dict(outcome: CriterionOutcome) -> dict:
    return {
        "criterion": outcome.criterion,
        "applicable": outcome.conclusion.fired(),
        "witnesses": {k: str(v) for k, v in outcome.witnesses.items()},
        "conclusion": _conclusion_to_dict(outcome.conclusion),
        "certificateMode": outcome.certificate_mode,
    }


def _factorization_to_dict(result: oracle.FactorizationResult) -> dict:
    return {
        "content": str(result.content),
        "factors": [
            {"coeffs": [str(c) for c in g.coeffs], "multiplicity": mult}
            for g, mult in result.factors
        ],
    }


def report_to_dict(report: AnalysisReport) -> dict:
    from .criteria import NO_STRONGEST  # loaded by analyze; factor loads no criteria

    s = report.strongest or NO_STRONGEST
    out: dict = {
        "schema": SCHEMA,
        "input": _input_to_dict(report.input),
        "normalization": {"content": str(report.content), "zPower": report.z_power},
        "outcomes": [_outcome_to_dict(o) for o in report.outcomes],
        "strongest": {
            "criterion": s.criterion,
            "conclusion": _conclusion_to_dict(s.conclusion),
            "witnesses": {k: str(v) for k, v in s.witnesses.items()},
            "certificateMode": s.certificate_mode,
        },
    }
    if report.oracle_result is not None:
        out["oracle"] = _factorization_to_dict(report.oracle_result)
    out["warnings"] = list(report.warnings)
    return out


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def _report_text_lines(report: AnalysisReport) -> list[str]:
    from .criteria import EXACT, NO_STRONGEST  # as in report_to_dict

    lines = [
        f"input: {report.input_text}  [coeffs {render_coeff_list(report.input)}]",
        f"normalization: content {report.content}, zPower {report.z_power}, "
        f"primitive part {report.primitive_part.to_sparse_string()}",
    ]
    for o in report.outcomes:
        witness = ", ".join(f"{k}={v}" for k, v in o.witnesses.items())
        mode = "" if o.certificate_mode == EXACT else f"  [{o.certificate_mode}]"
        lines.append(f"  {o.criterion:22s} {str(o.conclusion):22s} {witness}{mode}")
    s = report.strongest or NO_STRONGEST
    lines.append(f"strongest: {s.conclusion}" + (f" via {s.criterion}" if s.criterion else ""))
    if report.oracle_result is not None:
        lines.append(
            f"oracle: {render_factorization(report.oracle_result)} "
            f"({report.oracle_result.nonconstant_factor_count()} irreducible factors)"
        )
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError(f"bad sign {_excerpt(text)} (use + or -)")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {_excerpt(text)}") from None


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"bad job count {_excerpt(text)} (use an integer >= 1)")
    return jobs


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import criteria

    f = parse_poly(args.poly)
    if args.criteria == "all":
        names = tuple(criteria.CRITERIA)
    else:
        names = tuple(tok.strip() for tok in args.criteria.split(",") if tok.strip())
        if not names:
            raise PolyParseError("empty criteria list")
    config = criteria.AnalyzeConfig(criteria=names, root_mode=args.root_mode, oracle=args.oracle)
    try:
        report = criteria.analyze(f, config)
    except criteria.SoundnessError as exc:
        print(f"error: soundness: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    if args.format == "json":
        print(report_to_json(report))
    else:
        print("\n".join(_report_text_lines(report)))
    return EXIT_OK if report.strongest is not None else EXIT_NO_CONCLUSION


def cmd_factor(args: argparse.Namespace) -> int:
    f = parse_poly(args.poly)
    result = oracle.factor(f, max_degree=args.max_degree)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "input": _input_to_dict(f),
            "oracle": _factorization_to_dict(result),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_factorization(result))
        print(f"irreducible factors: {result.nonconstant_factor_count()}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    from . import audit as audit_mod  # loaded only here: it pulls in multiprocessing

    violations = 0
    if args.families is not None:
        names = dict.fromkeys(t.strip().upper() for t in args.families.split(",") if t.strip())
        if not names:
            raise PolyParseError("empty families list")
        for name in names:  # a repeated family is audited once
            checked, family_violations = audit_mod.audit_family(name)
            print(f"family {name}: {checked} instances, "
                  f"{len(family_violations)} violations")
            for item in family_violations[:10]:
                print(f"  violation: {item}")
            violations += len(family_violations)
    if args.families is None or args.max_degree is not None or args.coeff_bound is not None:
        max_degree = args.max_degree if args.max_degree is not None else 3
        coeff_bound = args.coeff_bound if args.coeff_bound is not None else 3
        result = audit_mod.audit_exhaustive(max_degree, coeff_bound, jobs=args.jobs)
        print("\n".join(result.summary_lines()))
        violations += result.violation_count()
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def cmd_gen(args: argparse.Namespace) -> int:
    import inspect  # corpus loads it already

    from . import corpus

    if args.family:  # every family option given; gen_family refuses the wrong ones
        options = {key for fn in corpus.FAMILIES.values() for key in inspect.signature(fn).parameters}
        given = {key: getattr(args, key) for key in options if getattr(args, key) is not None}
        polys = [corpus.gen_family(args.family.upper(), given)]
    elif args.exhaustive:
        polys = corpus.gen_exhaustive(args.max_degree, args.coeff_bound)
    elif args.random:
        polys = corpus.gen_random(args.count, args.max_degree, args.coeff_bound, args.seed)
    else:
        raise PolyParseError("gen needs --family, --exhaustive, or --random")
    for f in polys:
        print(render_coeff_list(f))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irreducia",
        description="Irreducibility criteria and exact factorization for "
                    "integer polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run all criteria on one polynomial")
    p.add_argument("--poly", required=True, help='e.g. "z^3+4z+4" or "4,4,0,1"')
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--criteria", default="all", help="comma list of criterion names")
    p.add_argument("--root-mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--oracle", choices=["on", "off", "auto"], default="auto")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("factor", help="exact irreducible factorization")
    p.add_argument("--poly", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--max-degree", type=int, default=oracle.DEFAULT_MAX_DEGREE)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("audit", help="criteria-vs-oracle corpus audit")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("--families", default=None, help="comma list, e.g. P1,P4")
    p.add_argument("--jobs", type=_parse_jobs, default=1)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("gen", help="generate family members or corpora")
    p.add_argument("--family", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--a0", type=int, default=None)
    p.add_argument("--tail", type=_parse_int_list, default=None,
                   help="comma list a_1..a_m (P2)")
    p.add_argument("--middle", type=_parse_int_list, default=None,
                   help="comma list a_1..a_(m-1) (P3)")
    p.add_argument("--sign", type=_parse_sign, default=None)
    p.add_argument("--signs", type=lambda text: [_parse_sign(ch) for ch in text], default=None,
                   help="P4 sign string, e.g. -+-")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--random", action="store_true")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join `--poly -z^2+1` into `--poly=-z^2+1`, and so for --tail, --middle
    and --signs: argparse would take a separate value with a leading minus
    for an option."""
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in ("--poly", "--tail", "--middle", "--signs")
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code != 2:
            raise
        return EXIT_ERROR  # 2 means audit violations here
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (PolyParseError, ValueError, oracle.OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
