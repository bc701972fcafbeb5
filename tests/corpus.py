"""Seeded generator of small valuation models, as config dictionaries.

``tower_config(seed)`` gives models of the worked example's shape: the
basis is 1, 2, r for a radicand r new to it, x and y have values 1 and
sqrt(2), and z is one to three monomials x^-a*y^b of positive value
plus w, whose value sqrt(r) - c lies just above the top monomial's.
The monomials' values lie between sqrt(2) and 3, so the value of z is
above that of y, as a model requires, and the chain's values stay close
together, which is where D flags and long chains appear.  The same seed
always gives the same config.
"""

import random
from fractions import Fraction
from math import floor, sqrt

from valgen import RadicalBasis

# squarefree, and neither 1 nor 2
RADICANDS = (3, 5, 6, 7, 10, 11, 51)


def tower_config(seed: int) -> dict:
    rng = random.Random(seed)
    r = rng.choice(RADICANDS)
    basis = RadicalBasis((1, 2, r))

    def value(ab):
        a, b = ab
        return b * basis.root(2) - basis.rational(a)

    # x^-a*y^b has value b*sqrt(2) - a, which lies between sqrt(2) and 3
    # exactly when a^2 < 2*(b-1)^2 and 2*b^2 < (a+3)^2
    pool = [
        (a, b)
        for b in range(2, 10)
        for a in range(2 * b)
        if a * a < 2 * (b - 1) ** 2 and 2 * b * b < (a + 3) ** 2
    ]
    terms = sorted(rng.sample(pool, rng.randint(1, 3)), key=value)
    a, b = terms[-1]
    # c a multiple of 1/5 with sqrt(r) - c just above the top value: the
    # float guess is checked exactly and lowered until it holds
    c = Fraction(floor(5 * (sqrt(r) - b * sqrt(2) + a)), 5)
    while not basis.root(r) - basis.rational(c) > value(terms[-1]):
        c -= Fraction(1, 5)
    z = " + ".join(f"x^{-a}*y^{b}" for a, b in terms) + " + w"
    return {
        "basis": [1, 2, r],
        "ambient_vars": ["x", "y", "w"],
        "ambient_values": [
            "1",
            "sqrt(2)",
            (basis.root(r) - basis.rational(c)).exact_str(),
        ],
        "images": {"x": "x", "y": "y", "z": z},
    }
