import random
import time
from fractions import Fraction

import pytest

from kippenhahn.exactnum import GaussianRational
from kippenhahn.groebner import dual_curve
from kippenhahn.matrixpencil import HermitianMatrix, HermitianPencil
from kippenhahn.mpoly import parse_poly
from kippenhahn.realroots import real_singular_points


def make_eq3_pencil() -> HermitianPencil:
    K = HermitianMatrix([[0, -1, 0], [-1, 0, 1], [0, 1, 0]])
    L = HermitianMatrix(
        [
            [Fraction(-1, 4), Fraction(-1, 2), 1],
            [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 2)],
            [1, Fraction(-1, 2), Fraction(-1, 4)],
        ]
    )
    return HermitianPencil(K, L)


def make_random_pencil(rng: random.Random, n: int) -> HermitianPencil:
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


@pytest.fixture(scope="session")
def eq3_pencil() -> HermitianPencil:
    return make_eq3_pencil()


@pytest.fixture(scope="session")
def fermat_dual():
    """The degree-30 dual of x0^6 - x1^6 - x2^6, with the seconds it took."""
    t0 = time.monotonic()
    q = dual_curve(parse_poly("x0^6 - x1^6 - x2^6", ("x0", "x1", "x2")))
    return q, time.monotonic() - t0


@pytest.fixture(scope="session")
def fermat_census(fermat_dual):
    """The real singular points of the Fermat dual, computed once per run."""
    return real_singular_points(fermat_dual[0])
