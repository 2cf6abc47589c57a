"""Buchberger's algorithm with elimination orders, and the dual curve of a
plane projective curve obtained by eliminating the primal variables from the
tangency ideal.

The monomial order is a parameter of the computation, not of a polynomial:
an ``Ideal`` holds it (grevlex by default) and ``buchberger`` returns the
reduced basis under it as a plain list of MultiPoly.  Internally polynomials
are kept over the integers with per-step content stripping; the public
surface speaks MultiPoly over Fraction.  Reduction and pair selection are
deterministic, so a Groebner basis is a pure function of the input ideal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .mpoly import MultiPoly, MonomialOrder, elimination_order, grevlex_order

__all__ = [
    "Ideal",
    "ResourceLimitError",
    "NonPrincipalIdealError",
    "buchberger",
    "normal_form",
    "eliminate",
    "dual_curve",
]

DEFAULT_MAX_TERMS = 10_000
DEFAULT_MAX_BITS = 1_000_000


class ResourceLimitError(RuntimeError):
    """Basis size or coefficient length exceeded the configured cap."""


class NonPrincipalIdealError(RuntimeError):
    """Elimination produced more than one generator where one was expected."""


class Ideal:
    """Generators over a common ring, and the monomial order (grevlex by
    default) under which their Groebner basis is computed."""

    def __init__(self, generators, order: MonomialOrder | None = None):
        gens = [g for g in generators]
        if not gens:
            raise ValueError("empty generator list")
        variables = gens[0].variables
        for g in gens:
            if g.variables != variables:
                raise ValueError("generators live in different rings")
        self.generators = gens
        self.variables = variables
        self.order = order or grevlex_order(len(variables))

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators over {self.variables})"


# --- internal integer-coefficient representation ---------------------------
#
# A polynomial is a list of (key, exp, coef) sorted by key descending, where
# key = order.key(exp) and coef is a Python int.  Content is stripped and the
# leading coefficient is kept positive.


def _to_internal(f: MultiPoly, order: MonomialOrder):
    if f.is_zero:
        return []
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    terms = [
        (order.key(e), e, int(c * den)) for e, c in f.terms.items()
    ]
    terms.sort(key=lambda t: t[0], reverse=True)
    return _strip_content(terms)


def _to_multipoly(p, variables, monic=True) -> MultiPoly:
    lead = p[0][2] if p and monic else 1
    return MultiPoly(variables, {e: Fraction(c, lead) for _, e, c in p})


def _strip_content(p):
    if not p:
        return p
    g = 0
    for _, _, c in p:
        g = gcd(g, c)
        if g == 1:
            break
    if p[0][2] < 0:
        g = -g
    if g != 1:
        p = [(k, e, c // g) for k, e, c in p]
    return p


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _merge_scaled(pa, ca, pb, cb):
    """ca*pa + cb*pb for sorted term lists; result sorted, zero-free."""
    out = []
    i = j = 0
    na, nb = len(pa), len(pb)
    while i < na and j < nb:
        ka = pa[i][0]
        kb = pb[j][0]
        if ka > kb:
            k, e, c = pa[i]
            out.append((k, e, ca * c))
            i += 1
        elif kb > ka:
            k, e, c = pb[j]
            out.append((k, e, cb * c))
            j += 1
        else:
            c = ca * pa[i][2] + cb * pb[j][2]
            if c:
                out.append((ka, pa[i][1], c))
            i += 1
            j += 1
    while i < na:
        k, e, c = pa[i]
        out.append((k, e, ca * c))
        i += 1
    while j < nb:
        k, e, c = pb[j]
        out.append((k, e, cb * c))
        j += 1
    return out


def _shift(p, kshift, eshift):
    return [
        (tuple(map(sum, zip(k, kshift))), tuple(map(sum, zip(e, eshift))), c)
        for k, e, c in p
    ]


def _spoly(f, g, order: MonomialOrder):
    ef, cf = f[0][1], f[0][2]
    eg, cg = g[0][1], g[0][2]
    lcm = _lcm(ef, eg)
    mf = tuple(a - b for a, b in zip(lcm, ef))
    mg = tuple(a - b for a, b in zip(lcm, eg))
    gamma = gcd(cf, cg)
    sf = _shift(f, order.key(mf), mf)
    sg = _shift(g, order.key(mg), mg)
    s = _merge_scaled(sf, cg // gamma, sg, -(cf // gamma))
    return _strip_content(s)


def _normal_form_internal(f, basis, order: MonomialOrder):
    """Full normal form of f modulo the basis, fraction-free."""
    done = []  # irreducible prefix; coefficients rescale as reductions proceed
    tail = f
    while tail:
        e_head = tail[0][1]
        reducer = None
        for g in basis:
            if _divides(g[0][1], e_head):
                reducer = g
                break
        if reducer is None:
            done.append(tail[0])
            tail = tail[1:]
            continue
        c_head = tail[0][2]
        cg = reducer[0][2]
        gamma = gcd(c_head, cg)
        a = cg // gamma
        b = c_head // gamma
        if a < 0:
            a, b = -a, -b
        m = tuple(x - y for x, y in zip(e_head, reducer[0][1]))
        shifted = _shift(reducer, order.key(m), m)
        tail = _merge_scaled(tail, a, shifted, -b)
        if a != 1 and done:
            done = [(k, e, c * a) for k, e, c in done]
    return _strip_content(done)


def _interreduce(polys, order: MonomialOrder):
    """Fully reduce each element against the others; drop zeros."""
    out = list(polys)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            others = [g for j, g in enumerate(out) if j != i and g]
            if not others:
                continue
            r = _normal_form_internal(out[i], others, order)
            if r != out[i]:
                out[i] = r
                changed = True
        out = [g for g in out if g]
    return out


def _gm_update(basis, pairs, order: MonomialOrder):
    """Gebauer-Moeller update of the pair table when the last element of
    ``basis`` joins it.

    ``pairs`` maps each surviving index pair (i, j), i < j, to its lcm and
    its selection key (lcm degree, then ``order.key(lcm)``).  Applies
    Buchberger's coprimality and chain criteria and returns the new table.
    """
    lm = [g[0][1] for g in basis]
    t = len(basis) - 1
    lt = lm[t]

    kept = {
        (i, j): (lij, key)
        for (i, j), (lij, key) in pairs.items()
        if not _divides(lt, lij)
        or _lcm(lm[i], lt) == lij
        or _lcm(lm[j], lt) == lij
    }

    # group candidate pairs (i, t) by their lcm and keep one representative
    # of each minimal lcm; drop coprime-lead pairs entirely
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(_lcm(lm[i], lt), []).append(i)
    minimal = []
    for L in sorted(by_lcm, key=lambda m: (sum(m), m)):
        if not any(_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if any(tuple(map(sum, zip(lm[i], lt))) == L for i in by_lcm[L]):
            continue  # coprime leading monomials: S-pair reduces to zero
        kept[(min(by_lcm[L]), t)] = (L, (sum(L), order.key(L)))
    return kept


def buchberger(
    ideal: Ideal,
    max_terms: int = DEFAULT_MAX_TERMS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> list[MultiPoly]:
    """Reduced, monic Groebner basis under the ideal's monomial order, sorted
    by decreasing leading term.

    One table maps each surviving critical pair to its lcm and selection key;
    the Gebauer-Moeller criteria prune it as the basis grows.  Pair selection
    follows the normal strategy: the entry with the least (lcm degree, lcm
    under the order, pair index) is reduced next.  Raises ResourceLimitError
    when the basis exceeds ``max_terms`` stored terms or any coefficient
    exceeds ``max_bits`` bits.
    """
    order = ideal.order
    variables = ideal.variables
    gens = [_to_internal(g, order) for g in ideal.generators if not g.is_zero]
    if not gens:
        raise ValueError("all generators are zero")

    basis = []
    pairs: dict = {}
    for g in sorted(gens, key=lambda p: p[0][0]):
        r = _normal_form_internal(g, basis, order)
        if r:
            basis.append(r)
            pairs = _gm_update(basis, pairs, order)

    while pairs:
        i, j = min(pairs, key=lambda ij: (pairs[ij][1], ij))
        del pairs[(i, j)]
        s = _spoly(basis[i], basis[j], order)
        if not s:
            continue
        r = _normal_form_internal(s, basis, order)
        if not r:
            continue
        basis.append(r)
        total_terms = sum(len(g) for g in basis)
        if total_terms > max_terms:
            raise ResourceLimitError(
                f"basis grew to {total_terms} terms (cap {max_terms})"
            )
        maxbits = max(abs(c).bit_length() for _, _, c in r)
        if maxbits > max_bits:
            raise ResourceLimitError(
                f"coefficient reached {maxbits} bits (cap {max_bits})"
            )
        pairs = _gm_update(basis, pairs, order)

    # minimal basis: drop elements whose leading monomial is divisible by
    # another's
    basis.sort(key=lambda p: p[0][0])
    minimal = []
    for g in basis:
        if any(_divides(h[0][1], g[0][1]) for h in minimal):
            continue
        minimal = [h for h in minimal if not _divides(g[0][1], h[0][1])]
        minimal.append(g)
    reduced = _interreduce(minimal, order)
    reduced.sort(key=lambda p: p[0][0], reverse=True)
    return [_to_multipoly(p, variables) for p in reduced]


def normal_form(f: MultiPoly, basis, order: MonomialOrder | None = None) -> MultiPoly:
    """Full remainder of f modulo a list of polynomials under ``order``
    (default grevlex), scaled to coprime integer coefficients."""
    order = order or grevlex_order(len(f.variables))
    internal = [_to_internal(g, order) for g in basis if not g.is_zero]
    r = _normal_form_internal(_to_internal(f, order), internal, order)
    return _to_multipoly(r, f.variables, monic=False)


def eliminate(ideal: Ideal, **caps) -> list[MultiPoly]:
    """Basis of the elimination ideal: the reduced Groebner elements free of
    the variables the ideal's order eliminates.

    Those are the first ``ideal.order.split`` variables, the leading block of
    an ``elimination_order``; grevlex and lex eliminate none, so the whole
    basis is returned.
    """
    split = ideal.order.split
    return [
        g for g in buchberger(ideal, **caps)
        if not any(any(e[:split]) for e in g.terms)
    ]


def dual_curve(
    p: MultiPoly,
    max_terms: int = DEFAULT_MAX_TERMS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> MultiPoly:
    """Equation of the dual curve of {p = 0} in the dual projective plane.

    Eliminates the primal variables from the tangency ideal
    {p, dp/dx0 - y0, dp/dx1 - y1, dp/dx2 - y2}; the result is normalized to
    coprime integer coefficients with positive leading coefficient.  Requires
    homogeneous squarefree p of degree >= 2 in three variables; raises
    NonPrincipalIdealError when the elimination ideal is generated by more
    than one element.

    The generator needs no squarefree step: Q[x, y]/(p, grad p - y) is
    isomorphic to Q[x]/(p), which is reduced for squarefree p, so the
    elimination ideal (the kernel of Q[y] into that ring) is radical and its
    principal generator squarefree.
    """
    if len(p.variables) != 3:
        raise ValueError("dual_curve expects a trivariate polynomial")
    deg = p.homogeneous_degree() if not p.is_zero else None
    if deg is None or deg < 2:
        raise ValueError("dual_curve expects a homogeneous polynomial of degree >= 2")
    if not p.squarefree_part().proportional_to(p):
        raise ValueError("dual_curve expects a squarefree polynomial")

    primal = p.variables
    base = "y" if primal[0][0] != "y" else "x"
    dual_vars = tuple(f"{base}{i}" for i in range(3))
    ring = primal + dual_vars

    def lift(f: MultiPoly) -> MultiPoly:
        return MultiPoly(ring, {e + (0, 0, 0): c for e, c in f.terms.items()})

    gens = [lift(p)]
    for i in range(3):
        yi = MultiPoly.variable(ring, 3 + i)
        gens.append(lift(p.diff(i)) - yi)

    basis = eliminate(
        Ideal(gens, elimination_order(6, 3)), max_terms=max_terms, max_bits=max_bits
    )
    if len(basis) != 1:
        raise NonPrincipalIdealError(
            f"elimination ideal has {len(basis)} generators; expected 1"
        )
    q = MultiPoly(dual_vars, {e[3:]: c for e, c in basis[0].terms.items()}).normalized()
    if q.homogeneous_degree() is None:
        raise RuntimeError("dual curve polynomial is not homogeneous")
    return q
