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
from itertools import chain

from . import oracle
from .poly import Polynomial, PolyParseError, parse_poly

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


def _conclusion_to_dict(conclusion: Conclusion) -> dict:
    d: dict = {"kind": conclusion.kind.value}
    if conclusion.bound is not None:
        d["bound"] = conclusion.bound
    return d


def _outcome_to_dict(outcome: CriterionOutcome) -> dict:
    return {
        "criterion": outcome.criterion,
        "applicable": outcome.applicable,
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
    if report.strongest is not None:
        strongest = {
            "criterion": report.strongest.criterion,
            "conclusion": _conclusion_to_dict(report.strongest.conclusion),
            "witnesses": {k: str(v) for k, v in report.strongest.witnesses.items()},
            "certificateMode": report.strongest.certificate_mode,
        }
    else:
        strongest = {
            "criterion": None,
            "conclusion": {"kind": "NoConclusion"},
            "witnesses": {},
            "certificateMode": "exact",
        }
    out: dict = {
        "schema": SCHEMA,
        "input": {
            "text": report.input_text,
            "coeffs": [str(c) for c in report.input.coeffs],
        },
        "normalization": {"content": str(report.content), "zPower": report.z_power},
        "outcomes": [_outcome_to_dict(o) for o in report.outcomes],
        "strongest": strongest,
    }
    if report.oracle_result is not None:
        out["oracle"] = _factorization_to_dict(report.oracle_result)
    out["warnings"] = list(report.warnings)
    return out


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def _report_text_lines(report: AnalysisReport) -> list[str]:
    lines = [
        f"input: {report.input_text}  [coeffs {render_coeff_list(report.input)}]",
        f"normalization: content {report.content}, zPower {report.z_power}, "
        f"primitive part {report.primitive_part.to_sparse_string()}",
    ]
    for o in report.outcomes:
        witness = ", ".join(f"{k}={v}" for k, v in o.witnesses.items())
        kind = o.conclusion.kind.value
        if o.conclusion.bound is not None:
            kind += f"({o.conclusion.bound})"
        mode = "" if o.certificate_mode == "exact" else f"  [{o.certificate_mode}]"
        lines.append(f"  {o.criterion:22s} {kind:22s} {witness}{mode}")
    if report.strongest is not None:
        s = report.strongest
        kind = s.conclusion.kind.value
        if s.conclusion.bound is not None:
            kind += f"({s.conclusion.bound})"
        lines.append(f"strongest: {kind} via {s.criterion}")
    else:
        lines.append("strongest: NoConclusion")
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
    raise PolyParseError(f"bad sign {text!r} (use + or -)")


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


# gen --family options that argparse leaves as text, by family parameter name
_GEN_CONVERTERS = {
    "sign": _parse_sign,
    "signs": lambda text: [_parse_sign(ch) for ch in text],
    "tail": _parse_int_list,
    "middle": _parse_int_list,
}


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import criteria
    from .rootloc import CertificateMode

    f = parse_poly(args.poly)
    if args.criteria == "all":
        names = tuple(criteria.CRITERIA)
    else:
        names = tuple(tok.strip() for tok in args.criteria.split(",") if tok.strip())
        if not names:
            raise PolyParseError("empty criteria list")
    mode = (
        CertificateMode.SYMBOLIC_SUFFICIENT
        if args.root_mode == "symbolic"
        else CertificateMode.NUMERIC_HEURISTIC
    )
    config = criteria.AnalyzeConfig(
        criteria=names,
        root_mode=mode,
        oracle=args.oracle,
        max_oracle_degree=args.max_oracle_degree,
    )
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
            "input": {"text": f.to_sparse_string(), "coeffs": [str(c) for c in f.coeffs]},
            "oracle": _factorization_to_dict(result),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_factorization(result))
        print(f"irreducible factors: {result.nonconstant_factor_count()}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    from . import audit as audit_mod  # loaded only here: it pulls in multiprocessing
    from . import corpus

    violations = 0
    if args.families:
        names = [tok.strip().upper() for tok in args.families.split(",") if tok.strip()]
        for name in names:
            checked, family_violations = audit_mod.audit_family(name)
            print(f"family {name}: {checked} instances, "
                  f"{len(family_violations)} violations")
            for item in family_violations[:10]:
                print(f"  violation: {item}")
            violations += len(family_violations)
    if args.families is None or args.max_degree is not None:
        max_degree = args.max_degree if args.max_degree is not None else 3
        coeff_bound = args.coeff_bound if args.coeff_bound is not None else 3
        polys = corpus.gen_exhaustive(max_degree, coeff_bound)
        if args.random_count:
            extra = corpus.gen_random(
                args.random_count, max_degree, coeff_bound, args.seed
            )
            polys = chain(polys, extra)
        result = audit_mod.audit_corpus(polys, jobs=args.jobs)
        print("\n".join(result.summary_lines()))
        violations += result.violation_count()
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def cmd_gen(args: argparse.Namespace) -> int:
    from . import corpus

    if args.family:
        name = args.family.upper()
        if name not in corpus.FAMILIES:
            raise PolyParseError(f"unknown family {args.family!r}")
        _, names = corpus.FAMILIES[name]
        given = {key: getattr(args, key) for key in names if getattr(args, key) is not None}
        missing = [key for key in names if key not in given and key != "signs"]
        if missing:  # P4 alone may leave its signs out: they default to all +
            raise PolyParseError(f"family {name} needs --{', --'.join(missing)}")
        params = {key: _GEN_CONVERTERS.get(key, int)(value) for key, value in given.items()}
        f = corpus.gen_family(name, params)
        print(render_coeff_list(f))
    elif args.exhaustive:
        for f in corpus.gen_exhaustive(args.max_degree, args.coeff_bound):
            print(render_coeff_list(f))
    elif args.random:
        for f in corpus.gen_random(args.count, args.max_degree, args.coeff_bound,
                                   args.seed):
            print(render_coeff_list(f))
    else:
        raise PolyParseError("gen needs --family, --exhaustive, or --random")
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
    p.add_argument("--max-oracle-degree", type=int, default=oracle.DEFAULT_MAX_DEGREE)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-count", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--tail", default=None, help="comma list a_1..a_m (P2)")
    p.add_argument("--middle", default=None, help="comma list a_1..a_(m-1) (P3)")
    p.add_argument("--sign", default="+")
    p.add_argument("--signs", default=None,
                   help="P4 sign string; use --signs=-+- for leading '-'")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--random", action="store_true")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    return parser


def _attach_poly_values(argv: list[str]) -> list[str]:
    """Join `--poly -z^2+1` into `--poly=-z^2+1`: argparse would take a
    separate value with a leading minus for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--poly" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--poly={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
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


if __name__ == "__main__":
    sys.exit(main())
