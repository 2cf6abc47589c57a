"""Hermitian matrix pencils: exact determinant polynomials, numeric support
function via the smallest eigenvalue, numerical-range sampling, and
spectrahedron membership.

Exact paths run over Gaussian rationals; floating paths call LAPACK's
Hermitian eigensolver through numpy (``eigh``/``eigvalsh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import GaussianRational, ParseError, parse_gaussian
from .mpoly import MultiPoly, grevlex_order

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
    "spectrahedron_contains",
    "dual_boundary_point",
    "parse_pencil_text",
    "format_pencil_text",
]

GEOM_TOL = 1e-9


class EigenError(RuntimeError):
    """The input is not a finite square Hermitian matrix, or LAPACK failed."""


class HermitianMatrix:
    """Square matrix over Gaussian rationals equal to its conjugate transpose."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = [tuple(GaussianRational.from_value(v) for v in row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for j in range(n):
            if rows[j][j].im:
                raise ValueError(f"diagonal entry ({j},{j}) must be real")
            for k in range(j + 1, n):
                if rows[j][k] != rows[k][j].conjugate():
                    raise ValueError(f"entries ({j},{k}) and ({k},{j}) not conjugate")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @classmethod
    def zeros(cls, n):
        z = GaussianRational(0)
        return cls([[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls(
            [[GaussianRational(1 if j == k else 0) for k in range(n)] for j in range(n)]
        )

    def __getitem__(self, jk):
        j, k = jk
        return self.entries[j][k]

    def __eq__(self, other):
        return isinstance(other, HermitianMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def add(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c) -> "HermitianMatrix":
        c = Fraction(c)
        return HermitianMatrix([[v * c for v in row] for row in self.entries])

    def shift(self, c) -> "HermitianMatrix":
        """self + c * identity for rational c."""
        c = Fraction(c)
        return HermitianMatrix(
            [
                [v + c if j == k else v for k, v in enumerate(row)]
                for j, row in enumerate(self.entries)
            ]
        )

    def trace(self) -> Fraction:
        return sum((self.entries[j][j].re for j in range(self.n)), Fraction(0))

    def to_complex_array(self) -> np.ndarray:
        return np.array(
            [[v.to_complex() for v in row] for row in self.entries], dtype=complex
        )

    def is_positive_definite(self) -> bool:
        """Exact Sylvester criterion: all leading principal minors positive."""
        for k in range(1, self.n + 1):
            minor = _gaussian_det(
                [row[:k] for row in self.entries[:k]]
            )
            if minor.im:
                raise ValueError("hermitian minor came out complex")
            if minor.re <= 0:
                return False
        return True

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


def _gaussian_det(rows) -> GaussianRational:
    """Cofactor determinant of a small matrix of Gaussian rationals."""
    n = len(rows)
    if n == 0:
        return GaussianRational(1)
    if n == 1:
        return rows[0][0]
    det = GaussianRational(0)
    for k in range(n):
        if rows[0][k].is_zero:
            continue
        sub = [r[:k] + r[k + 1 :] for r in rows[1:]]
        term = rows[0][k] * _gaussian_det(sub)
        det = det + term if k % 2 == 0 else det - term
    return det


class HermitianPencil:
    """Pair (K, L) of same-size Hermitian matrices.

    Defines the numerical range of K + iL, its boundary support function, the
    determinant curve det(x0 + x1 K + x2 L) = 0 and the spectrahedron
    {1 + x1 K + x2 L >= 0}.
    """

    __slots__ = ("K", "L", "_float_cache")

    def __init__(self, K: HermitianMatrix, L: HermitianMatrix):
        if K.n != L.n:
            raise ValueError("K and L must have the same size")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "_float_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("HermitianPencil is immutable")

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
        half = Fraction(1, 2)
        K = [
            [(rows[j][k] + rows[k][j].conjugate()) * half for k in range(n)]
            for j in range(n)
        ]
        minus_half_i = GaussianRational(0, Fraction(-1, 2))
        L = [
            [(rows[j][k] - rows[k][j].conjugate()) * minus_half_i for k in range(n)]
            for j in range(n)
        ]
        return cls(HermitianMatrix(K), HermitianMatrix(L))

    def centroid(self) -> tuple[Fraction, Fraction]:
        """(tr K / n, tr L / n); always a point of the numerical range."""
        return self.K.trace() / self.n, self.L.trace() / self.n

    def translated(self, c1, c2) -> "HermitianPencil":
        """Pencil of (K - c1, L - c2); shifts the numerical range by (-c1, -c2)."""
        return HermitianPencil(self.K.shift(-Fraction(c1)), self.L.shift(-Fraction(c2)))

    def _floats(self):
        cache = self._float_cache
        if "K" not in cache:
            cache["K"] = self.K.to_complex_array()
            cache["L"] = self.L.to_complex_array()
        return cache["K"], cache["L"]

    def combine_float(self, x1: float, x2: float) -> np.ndarray:
        Kf, Lf = self._floats()
        return x1 * Kf + x2 * Lf

    def combine_exact(self, x1, x2, shift=0) -> HermitianMatrix:
        """shift * identity + x1 K + x2 L over exact rationals."""
        return self.K.scale(Fraction(x1)).add(self.L.scale(Fraction(x2))).shift(
            Fraction(shift)
        )

    def __repr__(self):
        return f"HermitianPencil(n={self.n})"


# --- exact determinant curve -------------------------------------------------
#
# Entries of x0*1 + x1*K + x2*L are linear trivariate polynomials with
# Gaussian-rational coefficients; the determinant is expanded by cofactors in
# a small dict-based polynomial ring, then checked to be real.


def _gp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prev = out.get(exp)
            val = ca * cb if prev is None else prev + ca * cb
            if val.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = val
    return out


def _gp_addsub(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        val = out.get(e, GaussianRational(0)) + (c if sign > 0 else -c)
        if val.is_zero:
            out.pop(e, None)
        else:
            out[e] = val
    return out


def _gp_det(rows: list[list[dict]]) -> dict:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det: dict = {}
    for k in range(n):
        if not rows[0][k]:
            continue
        sub = [r[:k] + r[k + 1 :] for r in rows[1:]]
        term = _gp_mul(rows[0][k], _gp_det(sub))
        det = _gp_addsub(det, term, 1 if k % 2 == 0 else -1)
    return det


def pencil_det(P: HermitianPencil, variables=("x0", "x1", "x2")) -> MultiPoly:
    """Exact determinant polynomial det(x0*1 + x1*K + x2*L).

    Homogeneous of degree n with real rational coefficients; a nonzero
    imaginary part in any coefficient signals a broken Hermitian invariant
    and raises ValueError.
    """
    n = P.n
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            entry: dict = {}
            if j == k:
                entry[(1, 0, 0)] = GaussianRational(1)
            kv = P.K[j, k]
            if not kv.is_zero:
                entry[(0, 1, 0)] = kv
            lv = P.L[j, k]
            if not lv.is_zero:
                entry[(0, 0, 1)] = lv
            row.append(entry)
        rows.append(row)
    det = _gp_det(rows)
    terms = {}
    for exp, c in det.items():
        if c.im:
            raise ValueError(f"determinant coefficient at {exp} is not real: {c}")
        terms[exp] = c.re
    p = MultiPoly(variables, terms, grevlex_order(3))
    if not p.is_zero and p.homogeneous_degree() != n:
        raise ValueError("pencil determinant is not homogeneous of degree n")
    return p


def det_along_line(A: HermitianMatrix, B: HermitianMatrix):
    """Exact coefficients (ascending) of det(A + t B) as a polynomial in t."""
    if A.n != B.n:
        raise ValueError("size mismatch")
    n = A.n
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            entry = {}
            av = A[j, k]
            if not av.is_zero:
                entry[(0, 0, 0)] = av
            bv = B[j, k]
            if not bv.is_zero:
                entry[(0, 1, 0)] = bv
            row.append(entry)
        rows.append(row)
    det = _gp_det(rows)
    if not det:
        return (Fraction(0),)
    top = max(e[1] for e in det)
    out = [Fraction(0)] * (top + 1)
    for exp, c in det.items():
        if c.im:
            raise ValueError("determinant along line is not real")
        out[exp[1]] = c.re
    return tuple(out)


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


def _direction_sweep(P: HermitianPencil, m: int):
    """Spectra of cos(theta_j) K + sin(theta_j) L at theta_j = 2 pi j / m.

    One stacked ``eigh`` call; returns the angles, the (m, n) ascending
    eigenvalues and the (m, n, 2) quadratic-form images (v*Kv, v*Lv) of the
    matching eigenvectors.
    """
    if m < 3:
        raise ValueError("need at least 3 directions")
    Kf, Lf = P._floats()
    thetas = [2.0 * math.pi * j / m for j in range(m)]
    cos = np.array([math.cos(t) for t in thetas])[:, None, None]
    sin = np.array([math.sin(t) for t in thetas])[:, None, None]
    vals, V = np.linalg.eigh(cos * Kf + sin * Lf)
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


def spectrahedron_contains(
    P: HermitianPencil, pt, strict: bool = False, tol: float = GEOM_TOL
) -> bool:
    """Membership in S = {x : 1 + x1 K + x2 L positive semidefinite}."""
    x1, x2 = float(pt[0]), float(pt[1])
    if x1 == 0.0 and x2 == 0.0:
        return True
    lam = 1.0 + support_function(P, (x1, x2))
    return lam > tol if strict else lam >= -tol


def dual_boundary_point(P: HermitianPencil, x, tol: float = GEOM_TOL):
    """Boundary point -(x1, x2)/h(x) of the dual convex set.

    Requires h(x) < 0, i.e. the origin interior to the numerical range;
    otherwise raises ValueError("origin not interior").
    """
    h = support_function(P, x)
    if h >= -tol:
        raise ValueError("origin not interior")
    return (-float(x[0]) / h, -float(x[1]) / h)


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
    lines = text.splitlines()
    n = None
    sections: dict[str, list] = {}
    current: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("n"):
            rest = line[1:].replace("=", " ").strip()
            if rest.isdigit() and n is None:
                n = int(rest)
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
        out = []
        for lineno, row in rows:
            if len(row) != n:
                raise ParseError(
                    f"row has {len(row)} entries, expected {n}", line=lineno
                )
            out.append(row)
        return out

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
    lines = [f"n {P.n}"]
    for name, M in (("K", P.K), ("L", P.L)):
        lines.append(name)
        for row in M.entries:
            lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
