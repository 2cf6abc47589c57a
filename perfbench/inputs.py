"""Seeded benchmark inputs: the paper's pencils and random Hermitian pencils.

The random generator is the benchmark's own copy of the distribution used by
the package's tests (diagonal entries k/2, off-diagonal entries (a + b i)/2,
k, a, b uniform in -4..4), so that editing the tests never changes what the
benchmark measures.  Everything here is built from the public API.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from kippenhahn import GaussianRational, HermitianMatrix, HermitianPencil

EQ3_TEXT = (
    "n 3\nK\n0 -1 0\n-1 0 1\n0 1 0\nL\n"
    "-1/4 -1/2 1\n-1/2 -1/4 -1/2\n1 -1/2 -1/4\n"
)

FERMAT6_TEXT = "x0^6 - x1^6 - x2^6"

# omega is the root of t^12 - 11 t^6 - 1 in [1, 2]; the four isolated
# singular points of the Fermat dual sit at (+-omega, +-omega).
OMEGA_POLY = (-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1)
OMEGA = ((11 + 125**0.5) / 2) ** (1 / 6)


def random_pencil(rng: random.Random, n: int) -> HermitianPencil:
    def herm():
        m = [[GaussianRational(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = GaussianRational(Fraction(rng.randint(-4, 4), 2))
            for j in range(i + 1, n):
                z = GaussianRational(
                    Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)
                )
                m[i][j] = z
                m[j][i] = z.conjugate()
        return HermitianMatrix(m)

    return HermitianPencil(herm(), herm())


def _entry_text(z: GaussianRational) -> str:
    re, im = Fraction(z.re), Fraction(z.im)
    if not im:
        return str(re)
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{abs(im)}*i"


def pencil_text(P: HermitianPencil) -> str:
    """The CLI's matrix file format: size line, then K and L row by row."""
    lines = [f"n {P.n}"]
    for name, M in (("K", P.K), ("L", P.L)):
        lines.append(name)
        for j in range(P.n):
            lines.append(" ".join(_entry_text(M[j, k]) for k in range(P.n)))
    return "\n".join(lines) + "\n"


def float_matrices(P: HermitianPencil):
    """K and L as complex numpy arrays, converted here rather than by the
    package so that output checks do not depend on its float paths."""

    def arr(M):
        return np.array(
            [[complex(float(M[j, k].re), float(M[j, k].im)) for k in range(M.n)]
             for j in range(M.n)]
        )

    return arr(P.K), arr(P.L)


def rational_direction(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero direction with coordinates k/8, |k| <= 32."""
    while True:
        d = (Fraction(rng.randint(-32, 32), 8), Fraction(rng.randint(-32, 32), 8))
        if any(d):
            return d
