"""Seeded generators that only the tests use."""

import random

from irreducia.poly import Polynomial, is_primitive


def gen_dominant_second(
    count: int,
    max_degree: int = 6,
    coeff_bound: int = 2,
    lead_bound: int = 2,
    seed: int = 0,
) -> list[Polynomial]:
    """Seeded random primitive polynomials built to satisfy the non-monic
    Perron inequality: draw small coefficients, then inflate the
    second-highest one past 1 + sum_{i<=m-2} |a_i| |a_m|^(m-1-i)."""
    if count < 1 or max_degree < 2:
        raise ValueError("need count >= 1 and max_degree >= 2")
    rng = random.Random(seed)
    out: list[Polynomial] = []
    while len(out) < count:
        m = rng.randint(2, max_degree)
        low = [rng.randint(-coeff_bound, coeff_bound) for _ in range(m - 1)]
        if low[0] == 0:
            continue
        lead = rng.choice([c for c in range(-lead_bound, lead_bound + 1) if c])
        rhs = 1 + sum(abs(a) * abs(lead) ** (m - 1 - i) for i, a in enumerate(low))
        second = rng.choice((1, -1)) * (rhs + rng.randint(1, 3))
        f = Polynomial(low + [second, lead])
        if not is_primitive(f):
            continue
        out.append(f)
    return out
