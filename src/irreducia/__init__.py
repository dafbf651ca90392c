"""Irreducibility criteria and factor-count bounds for univariate integer
polynomials, with automatic witness search and an exact brute-force
factorization oracle for desk-scale verification.

The exports are lazy (PEP 562): `import irreducia` loads no submodule, and
each name below imports its submodule on first access. The six submodules
that hold them (`poly`, `numtheory`, `rootloc`, `criteria`, `oracle`,
`corpus`) resolve as attributes the same way."""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "AnalysisReport": "criteria",
    "AnalyzeConfig": "criteria",
    "CRITERIA": "criteria",
    "CertificateMode": "rootloc",
    "Conclusion": "criteria",
    "ConclusionKind": "criteria",
    "CriterionOutcome": "criteria",
    "FAMILIES": "corpus",
    "FactorizationLimitError": "numtheory",
    "FactorizationResult": "oracle",
    "FamilyConditionError": "corpus",
    "NonConvergenceError": "rootloc",
    "NormalizedInput": "poly",
    "OracleLimitError": "oracle",
    "PolyFacts": "criteria",
    "PolyParseError": "poly",
    "Polynomial": "poly",
    "PrimePowerDecomposition": "numtheory",
    "SoundnessError": "criteria",
    "analyze": "criteria",
    "certify_outside_disk": "rootloc",
    "constant_term_criterion": "criteria",
    "content": "poly",
    "divides_exactly": "poly",
    "dominant_coefficient": "criteria",
    "eisenstein_generalized": "criteria",
    "factor": "oracle",
    "factorize": "numtheory",
    "gen_exhaustive": "corpus",
    "gen_family": "corpus",
    "gen_p1": "corpus",
    "gen_p2": "corpus",
    "gen_p3": "corpus",
    "gen_p4": "corpus",
    "gen_random": "corpus",
    "is_prime": "numtheory",
    "is_primitive": "poly",
    "leading_coeff_criterion": "criteria",
    "middle_prime_power_check": "criteria",
    "normalize": "poly",
    "numeric_roots": "rootloc",
    "parse_poly": "poly",
    "perron_nonmonic": "criteria",
    "positive_divisors": "numtheory",
    "prime_factors": "numtheory",
    "rational_roots": "poly",
    "valuation": "numtheory",
    "verify": "oracle",
    "weintraub_check": "criteria",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
