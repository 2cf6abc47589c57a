"""Hermitian matrix pencils: exact determinant polynomials, numeric support
function via the smallest eigenvalue, and numerical-range sampling.

Exact paths are fraction-free Bareiss elimination over Gaussian integers, whose
pivots are the leading minors; floating paths call LAPACK's Hermitian
eigensolver through numpy (``eigh``/``eigvalsh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactnum import (
    GaussianRational,
    ParseError,
    UniPoly,
    _bareiss,
    _over_common_den,
    parse_gaussian,
)
from .mpoly import MultiPoly

__all__ = [
    "HermitianMatrix",
    "HermitianPencil",
    "EigenResult",
    "EigenError",
    "pencil_det",
    "det_along_line",
    "eigen_hermitian",
    "support_function",
    "sample_numrange_boundary",
    "parse_pencil_text",
    "format_pencil_text",
]

class EigenError(RuntimeError):
    """The input is not a finite square Hermitian matrix, or LAPACK failed."""


@dataclass(frozen=True, slots=True, init=False)
class HermitianMatrix:
    """Square matrix over Gaussian rationals equal to its conjugate transpose,
    held as Gaussian-integer rows over one denominator: entry (j, k) is
    (re[j][k] + im[j][k] i) / den, den > 0 the least common denominator of
    the entries, so equal matrices have equal fields."""

    n: int
    den: int
    re: tuple
    im: tuple

    def __new__(cls, entries):
        rows = [tuple(GaussianRational.from_value(v) for v in row) for row in entries]
        n = len(rows)
        if n < 1:
            raise ValueError("matrix size 0 is below 1")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for j in range(n):
            if rows[j][j].im:
                raise ValueError(f"diagonal entry ({j},{j}) must be real")
            for k in range(j + 1, n):
                if rows[j][k] != rows[k][j].conjugate():
                    raise ValueError(f"entries ({j},{k}) and ({k},{j}) not conjugate")
        den = math.lcm(*(x.denominator for r in rows for z in r for x in (z.re, z.im)))
        re = [[int(z.re * den) for z in r] for r in rows]
        im = [[int(z.im * den) for z in r] for r in rows]
        return cls._from_ints(den, re, im)

    @classmethod
    def _from_ints(cls, den, re, im) -> "HermitianMatrix":
        """(re + i im) / den in lowest terms; Hermitian int rows, den > 0, unchecked."""
        g = math.gcd(den, *(x for P in (re, im) for r in P for x in r))
        re, im = (tuple(tuple(x // g for x in r) for r in P) for P in (re, im))
        M = object.__new__(cls)
        for name, v in zip(cls.__slots__, (len(re), den // g, re, im)):
            object.__setattr__(M, name, v)
        return M

    @classmethod
    def identity(cls, n):
        return cls([[int(j == k) for k in range(n)] for j in range(n)])

    def __getitem__(self, jk):
        (j, k), d = jk, self.den
        return GaussianRational(Fraction(self.re[j][k], d), Fraction(self.im[j][k], d))

    @property
    def entries(self) -> tuple:
        return tuple(tuple(self[j, k] for k in range(self.n)) for j in range(self.n))

    def trace(self) -> Fraction:
        return Fraction(sum(self.re[j][j] for j in range(self.n)), self.den)

    def to_complex_array(self) -> np.ndarray:
        re, im, d = self.re, self.im, self.den
        rows = [[complex(a / d, b / d) for a, b in zip(*r)] for r in zip(re, im)]
        return np.array(rows, dtype=complex)

    def is_positive_definite(self) -> bool:
        """Exact Sylvester criterion (Horn-Johnson, Thm 7.2.5): the pivots of one
        Bareiss pass without row swaps over den * self are its leading
        principal minors, and the first that is not positive decides."""
        re, im = ([list(r) for r in P] for P in (self.re, self.im))
        for p, q in _bareiss(re, im, swap=False):
            if q:
                raise ValueError(f"leading principal minor is not real: {p} + {q}i")
            if p <= 0:
                return False
        return True

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


@dataclass(frozen=True, slots=True, eq=False)
class HermitianPencil:
    """Pair (K, L) of same-size Hermitian matrices.

    Defines the numerical range of K + iL, its boundary support function, the
    determinant curve det(x0 + x1 K + x2 L) = 0 and the spectrahedron
    {1 + x1 K + x2 L >= 0}.
    """

    K: HermitianMatrix
    L: HermitianMatrix
    _float_cache: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.K.n != self.L.n:
            raise ValueError("K and L must have the same size")

    @property
    def n(self) -> int:
        return self.K.n

    @classmethod
    def from_matrix(cls, entries) -> "HermitianPencil":
        """Split a complex square matrix A into A = K + iL exactly."""
        rows = [[GaussianRational.from_value(v) for v in row] for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        # K = (A + A^H) / 2 and L = (A - A^H) / 2i from the pairs (a_jk, a_kj),
        # part by part: (x + iy) / 2i = (y - ix) / 2
        pairs = [list(zip(row, col)) for row, col in zip(rows, zip(*rows))]
        half = Fraction(1, 2)
        K = [
            [GaussianRational((a.re + b.re) * half, (a.im - b.im) * half) for a, b in r]
            for r in pairs
        ]
        L = [
            [GaussianRational((a.im + b.im) * half, (b.re - a.re) * half) for a, b in r]
            for r in pairs
        ]
        return cls(HermitianMatrix(K), HermitianMatrix(L))

    def centroid(self) -> tuple[Fraction, Fraction]:
        """(tr K / n, tr L / n); always a point of the numerical range."""
        return self.K.trace() / self.n, self.L.trace() / self.n

    def translated(self, c1, c2) -> "HermitianPencil":
        """Pencil of (K - c1, L - c2); shifts the numerical range by (-c1, -c2)."""
        return HermitianPencil(
            self.combine_exact(1, 0, -Fraction(c1)), self.combine_exact(0, 1, -Fraction(c2))
        )

    def _floats(self):
        cache = self._float_cache
        if not cache:
            cache["KL"] = self.K.to_complex_array(), self.L.to_complex_array()
        return cache["KL"]

    def combine_float(self, x1, x2) -> np.ndarray:
        """x1 K + x2 L in floats; (m, 1, 1) arrays x1, x2 give the (m, n, n) stack."""
        Kf, Lf = self._floats()
        return x1 * Kf + x2 * Lf

    def combine_exact(self, x1, x2, shift=0) -> HermitianMatrix:
        """shift * identity + x1 K + x2 L over exact rationals, combined on the
        integer rows over one common denominator; a real combination of
        Hermitian matrices is Hermitian."""
        K, L = self.K, self.L
        (a, b, c), den = _over_common_den(
            [Fraction(x1) / K.den, Fraction(x2) / L.den, Fraction(shift)]
        )
        re, im = _combine(a, K, b, L)
        for j, r in enumerate(re):
            r[j] += c
        return HermitianMatrix._from_ints(den, re, im)

    def __repr__(self):
        return f"HermitianPencil(n={self.n})"


# --- exact determinant curve -------------------------------------------------
#
# Fraction-free Bareiss elimination over Gaussian integers
# (``exactnum._bareiss``); leading minors are the pivots.  A pair of matrices
# is put over its common denominator D: det(M) = det(D M) / D^n.
# det(A + sB) is fixed by its values at s = 0..n; a Hermitian matrix at a real
# s has a real determinant, so a non-real one raises.


def _combine(a, A: HermitianMatrix, b, B: HermitianMatrix):
    """a * den(A) * A + b * den(B) * B for ints a, b: the integer combination
    of their rows, as fresh (real rows, imaginary rows)."""
    pairs = ((A.re, B.re), (A.im, B.im))
    return ([[a * x + b * y for x, y in zip(*r)] for r in zip(P, Q)] for P, Q in pairs)


def _det_poly(A: HermitianMatrix, B: HermitianMatrix) -> UniPoly:
    """det(A + sB), interpolated from its values at s = 0..n."""
    n, D = A.n, math.lcm(A.den, B.den)
    ys = []
    for s in range(n + 1):
        *_, (re, im) = _bareiss(*_combine(D // A.den, A, s * D // B.den, B), swap=True)
        if im:
            raise ValueError(f"sampled determinant is not real: {re}{im:+}*i / {D**n}")
        ys.append(Fraction(re, D**n))
    return UniPoly.interpolate(ys)


def pencil_det(P: HermitianPencil) -> MultiPoly:
    """Exact determinant polynomial det(x0*1 + x1*K + x2*L).

    Homogeneous of degree n with real rational coefficients.  Computed from
    p(x0, 1, t) = det((K + tL) + x0*1) at t = 0..n: each x0-coefficient is
    interpolated in t, and x0^a t^b becomes x0^a x1^(n-a-b) x2^b.  A non-real
    sampled determinant raises ValueError.
    """
    n, ident = P.n, HermitianMatrix.identity(P.n)
    # det(M + x0*1) is monic of degree n in x0: every row has n + 1 coefficients
    in_x0 = [_det_poly(P.combine_exact(1, t), ident).coeffs for t in range(n + 1)]
    terms = {}
    for a, column in enumerate(zip(*in_x0)):
        for b, c in enumerate(UniPoly.interpolate(column).coeffs):
            if not c:
                continue
            if a + b > n:
                raise ValueError("pencil determinant is not homogeneous of degree n")
            terms[(a, n - a - b, b)] = c
    return MultiPoly(("x0", "x1", "x2"), terms)


def det_along_line(A: HermitianMatrix, B: HermitianMatrix):
    """Exact coefficients (ascending) of det(A + t B) as a polynomial in t."""
    if A.n != B.n:
        raise ValueError("size mismatch")
    return _det_poly(A, B).coeffs or (Fraction(0),)


# --- floating eigensolver ----------------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues, orthonormal eigenvectors, and the residual
    max_k ||M v_k - lambda_k v_k||."""

    eigenvalues: tuple
    eigenvectors: tuple  # tuple of complex tuples, one per eigenvalue
    residual: float


def eigen_hermitian(M) -> EigenResult:
    """Full spectrum of a finite complex Hermitian matrix.

    Symmetrizes M and calls numpy's ``eigh``; eigenvectors come back
    orthonormal over the complex inner product.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise EigenError("matrix must be square")
    if not np.isfinite(M).all():
        raise EigenError("matrix has non-finite entries")
    herm_defect = np.abs(M - M.conj().T).max(initial=0.0)
    scale = np.abs(M).max(initial=1.0)
    if herm_defect > 1e-10 * scale:
        raise EigenError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    M = (M + M.conj().T) / 2.0
    try:
        vals, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"eigh failed: {exc}") from None
    residual = float(np.linalg.norm(M @ V - V * vals, axis=0).max(initial=0.0))
    return EigenResult(
        eigenvalues=tuple(float(v) for v in vals),
        eigenvectors=tuple(tuple(complex(c) for c in v) for v in V.T),
        residual=residual,
    )


def support_function(P: HermitianPencil, x) -> float:
    """Signed distance of the origin to the supporting line with inner normal x:
    the smallest eigenvalue of x1 K + x2 L."""
    x1, x2 = float(x[0]), float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("non-finite direction")
    if x1 == 0.0 and x2 == 0.0:
        raise ValueError("zero direction")
    return float(np.linalg.eigvalsh(P.combine_float(x1, x2))[0])


def _direction_stack(P: HermitianPencil, m: int):
    """The angles theta_j = 2 pi j / m and the (m, n, n) stack of
    ``combine_float`` at (cos theta_j, sin theta_j)."""
    thetas = [2.0 * math.pi * j / m for j in range(m)]
    cos = np.array([math.cos(t) for t in thetas])[:, None, None]
    sin = np.array([math.sin(t) for t in thetas])[:, None, None]
    return thetas, P.combine_float(cos, sin)


def _direction_sweep(P: HermitianPencil, m: int):
    """Spectra of cos(theta_j) K + sin(theta_j) L at theta_j = 2 pi j / m.

    One stacked ``eigh`` call; returns the angles, the (m, n) ascending
    eigenvalues and the (m, n, 2) quadratic-form images (v*Kv, v*Lv) of the
    matching eigenvectors.
    """
    if m < 3:
        raise ValueError("need at least 3 directions")
    thetas, stack = _direction_stack(P, m)
    vals, V = np.linalg.eigh(stack)
    Kf, Lf = P._floats()
    images = np.stack(
        [np.einsum("mjk,mjk->mk", V.conj(), F @ V).real for F in (Kf, Lf)], axis=-1
    )
    return thetas, vals, images


def sample_numrange_boundary(P: HermitianPencil, m: int):
    """Supporting-line contact points of the numerical range.

    For each direction theta_j = 2 pi j / m returns (theta_j, (y1, y2), h)
    where h is the support value and y the quadratic-form image of a smallest
    eigenvector.
    """
    thetas, vals, images = _direction_sweep(P, m)
    return [
        (theta, (float(y[0, 0]), float(y[0, 1])), float(h[0]))
        for theta, h, y in zip(thetas, vals, images)
    ]


# --- text format ---------------------------------------------------------------
#
# Structured text, one matrix row per line:
#
#   n 3
#   K
#   0 -1 0
#   -1 0 1
#   0 1 0
#   L
#   -1/4 -1/2 1
#   -1/2 -1/4 -1/2
#   1 -1/2 -1/4
#
# Alternatively a single complex matrix from which K and L derive exactly:
#
#   n 2
#   A
#   1+2*i 3
#   3 -i


def parse_pencil_text(text: str) -> HermitianPencil:
    n = None
    sections: dict[str, list] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("n"):
            rest = line[1:].replace("=", " ").strip()
            if rest.isdigit() and n is None:
                n = int(rest)
                if n < 1:
                    raise ParseError(f"matrix size {n} is below 1", line=lineno)
                continue
        if low in ("k", "l", "a"):
            current = low
            sections[current] = []
            continue
        if current is None:
            raise ParseError(
                f"unexpected content {line!r} before a matrix section", line=lineno
            )
        row = []
        for col, tok in enumerate(line.split(), start=1):
            try:
                row.append(parse_gaussian(tok))
            except ParseError as exc:
                raise ParseError(
                    f"bad matrix entry {tok!r}: {exc}", line=lineno, column=col
                ) from None
        sections[current].append((lineno, row))
    if n is None:
        raise ParseError("missing size line 'n <int>'")

    def build(name) -> list:
        rows = sections[name]
        if len(rows) != n:
            raise ParseError(
                f"matrix {name.upper()} has {len(rows)} rows, expected {n}",
                line=rows[-1][0] if rows else None,
            )
        for lineno, row in rows:
            if len(row) != n:
                raise ParseError(
                    f"row has {len(row)} entries, expected {n}", line=lineno
                )
        return [row for _, row in rows]

    if "a" in sections:
        if "k" in sections or "l" in sections:
            raise ParseError("give either A or the pair K, L, not both")
        return HermitianPencil.from_matrix(build("a"))
    if "k" not in sections or "l" not in sections:
        raise ParseError("need sections K and L (or a single matrix A)")
    try:
        return HermitianPencil(HermitianMatrix(build("k")), HermitianMatrix(build("l")))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_pencil_text(P: HermitianPencil) -> str:
    """P as K, L sections of the text format that ``parse_pencil_text``
    reads back: the one writer of pencil files."""
    lines = [f"n {P.n}"]
    for name, M in (("K", P.K), ("L", P.L)):
        lines.append(name)
        for row in M.entries:
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
