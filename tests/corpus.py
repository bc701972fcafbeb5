"""Seeded generators of small valuation models, as config dictionaries.

``tower_config(seed)`` gives models of the worked example's shape: the
basis is 1, 2, r for a radicand r new to it, x and y have values 1 and
sqrt(2), and z is one to three monomials x^-a*y^b of positive value
plus w, whose value sqrt(r) - c lies just above the top monomial's.
The monomials' values lie between sqrt(2) and 3, so the value of z is
above that of y, as a model requires, and the chain's values stay close
together, which is where D flags and long chains appear.

``first_chain_config(q, seed)`` gives the same tower of z over a first
chain with a finite jump multiple q_2 = q, so that second-chain members
are created over bounded first-chain slots: u1 and u2 have values 1/q'
and sqrt(2) (q' = 1 for q = 1, 3 for q = 2), x and y are u1, u1 + u2
(q_2 = 1, third member u2) or u1^2, u1^3 + u2 (q_2 = 2, third member
y^2 - x^3), and z is monomials u1^-a*u2^b plus u3.  Without a seed, z
is the worked example's u1^-1*u2^2 + u1^-5*u2^5 + u3, with u3 of value
sqrt(51) - 5; for q = 1 that chain has 26 members.  For q = 2, seeds 1,
2, 13 and 16 below 20 create members whose rewrites use y.

The same arguments always give the same config.
"""

import random
from fractions import Fraction
from math import floor, sqrt
from typing import Optional

from valgen import RadicalBasis

# squarefree, and neither 1 nor 2
RADICANDS = (3, 5, 6, 7, 10, 11, 51)

# q_2: the images of x and y, and the denominator d of u1's value 1/d
FIRST_CHAINS = {1: ("u1", "u1 + u2", 1), 2: ("u1^2", "u1^3 + u2", 3)}


def _tower(rng: random.Random, d: int, names: tuple[str, str, str]) -> dict:
    """A config with ambient values 1/d, sqrt(2) and sqrt(r) - c, and z
    one to three monomials of the first two names plus the third."""
    r = rng.choice(RADICANDS)
    basis = RadicalBasis((1, 2, r))
    u, v, w = names

    def value(ab):
        a, b = ab
        return b * basis.root(2) - basis.rational(Fraction(a, d))

    # u^-a*v^b has value b*sqrt(2) - a/d, which lies between sqrt(2) and 3
    # exactly when a^2 < 2*d^2*(b-1)^2 and 2*d^2*b^2 < (a+3*d)^2
    pool = [
        (a, b)
        for b in range(2, 10)
        for a in range(2 * d * b)
        if a * a < 2 * d * d * (b - 1) ** 2 and 2 * d * d * b * b < (a + 3 * d) ** 2
    ]
    terms = sorted(rng.sample(pool, rng.randint(1, 3)), key=value)
    a, b = terms[-1]
    # c a multiple of 1/5 with sqrt(r) - c just above the top value: the
    # float guess is checked exactly and lowered until it holds
    c = Fraction(floor(5 * (sqrt(r) - b * sqrt(2) + a / d)), 5)
    while not basis.root(r) - basis.rational(c) > value(terms[-1]):
        c -= Fraction(1, 5)
    z = " + ".join(f"{u}^{-a}*{v}^{b}" for a, b in terms) + f" + {w}"
    return {
        "basis": [1, 2, r],
        "ambient_vars": list(names),
        "ambient_values": [
            str(Fraction(1, d)),
            "sqrt(2)",
            (basis.root(r) - basis.rational(c)).exact_str(),
        ],
        "images": {"x": u, "y": v, "z": z},
    }


def tower_config(seed: int) -> dict:
    return _tower(random.Random(seed), 1, ("x", "y", "w"))


def first_chain_config(q: int, seed: Optional[int] = None) -> dict:
    x, y, d = FIRST_CHAINS[q]
    if seed is None:
        cfg = {
            "basis": [1, 2, 51],
            "ambient_vars": ["u1", "u2", "u3"],
            "ambient_values": [str(Fraction(1, d)), "sqrt(2)", "sqrt(51) - 5"],
            "images": {"z": "u1^-1*u2^2 + u1^-5*u2^5 + u3"},
        }
    else:
        cfg = _tower(random.Random(seed), d, ("u1", "u2", "u3"))
    cfg["images"].update(x=x, y=y)
    return cfg
