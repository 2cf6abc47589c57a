"""Buchberger's algorithm with elimination orders, and the dual curve of a
plane projective curve obtained by eliminating the primal variables from the
tangency ideal.

The monomial order is a parameter of the computation, not of a polynomial:
an ``Ideal`` holds it (grevlex by default) and ``buchberger`` returns the
reduced basis under it as a plain list of MultiPoly.  Internally a term is
three Python ints: the exponent vector and its key under the order, each
packed into fixed-width bit fields of one int, and an integer coefficient
(content stripped per step); the public surface speaks MultiPoly over
Fraction.  Pairs are selected by the normal strategy in a grading derived
from the generators (the tangency ideal weighs x by 1 and y by d - 1), and
``eliminate`` interreduces only the elements it returns.  Reduction and pair
selection are deterministic, so a Groebner basis is a pure function of the
input ideal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul

from .exactnum import _over_common_den
from .mpoly import MultiPoly, MonomialOrder, _form_degree, elimination_order, grevlex_order

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


# --- internal representation: packed monomials, integer coefficients -------
#
# A polynomial is a list of (key, exp, coef) sorted by key descending, where
# coef is a Python int and exp and key are packed monomials (Monagan and
# Pearce, J. Symb. Comp. 46, 2011): the exponent vector, and the rows of
# ``order.key`` of it, each written into FIELD-bit fields of one int, the
# first entry in the most significant field.  Every total degree stays below
# LIMIT, so every field of exp and of key does (no key row exceeds the total
# degree) and the top bit of each field, its guard bit, stays clear.  Then a
# monomial product is one addition on exp and one on key, packed ints compare
# as the tuples they pack, b - a has no guard bit set exactly when a divides b,
# and exp % DEG_MOD is the total degree.  Content is stripped and the leading
# coefficient is kept positive.  Beside each polynomial of a basis the code
# keeps its top (largest total) degree, which bounds the degree of any
# multiple before it is formed: reaching LIMIT raises ResourceLimitError.

FIELD = 16
LIMIT = 1 << (FIELD - 1)
DEG_MOD = (1 << FIELD) - 1


class _Packing:
    """Packed exponent vectors of one ring and packed keys under one order;
    ``weights`` grade the variables (all 1: the total degree)."""

    def __init__(self, order: MonomialOrder, weights=None):
        self.order = order
        self.weights = weights or (1,) * order.nvars
        self.shifts = [FIELD * i for i in reversed(range(order.nvars))]
        self.guard = sum(LIMIT << s for s in self.shifts)

    @staticmethod
    def pack(values):
        x = 0
        for v in values:
            x = (x << FIELD) | v
        return x

    def unpack(self, x):
        return tuple((x >> s) & (LIMIT - 1) for s in self.shifts)

    def key(self, exp):
        """Packed key of a packed exponent vector."""
        return self.pack(self.order.key(self.unpack(exp)))


def _grading(generators, nvars):
    """Positive integer variable weights under which every generator is
    homogeneous, if they are unique up to scale; else None (total degree).

    The weights solve w . (a - b) = 0 for any two exponents a, b of one
    generator: at rank nvars - 1 of those differences, the reduced row
    echelon form leaves one free column, which fixes w up to scale.
    """
    diffs = []
    for g in generators:
        exps = list(g.terms)
        diffs += ([a - b for a, b in zip(e, exps[0])] for e in exps[1:])
    # a difference of one sign is orthogonal to no positive weights
    if any(min(v) >= 0 or max(v) <= 0 for v in diffs):
        return None
    rows = {}  # pivot column -> integer row, positive there and 0 at the other pivots
    for v in diffs:
        for c, r in rows.items():
            if v[c]:
                v = [r[c] * a - v[c] * b for a, b in zip(v, r)]
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is not None:
            g = gcd(*v) if v[pivot] > 0 else -gcd(*v)
            v = [a // g for a in v]
            rows = {c: [v[pivot] * a - r[pivot] * b for a, b in zip(r, v)]
                    for c, r in rows.items()}
            rows[pivot] = v
    if len(rows) != nvars - 1:
        return None
    (free,) = set(range(nvars)) - rows.keys()
    den = lcm(*(r[c] for c, r in rows.items()))
    w = [-rows[c][free] * den // rows[c][c] if c in rows else den for c in range(nvars)]
    g = gcd(*w)
    return tuple(a // g for a in w) if min(w) > 0 else None


def _degree_cap(degree):
    return ResourceLimitError(
        f"a monomial of total degree {degree} exceeds the packed limit {LIMIT - 1}"
    )


def _to_internal(f: MultiPoly, pk: _Packing):
    if f.is_zero:
        return []
    terms = []
    for e, c in zip(f.terms, _over_common_den(f.terms.values())[0]):
        if sum(e) >= LIMIT:
            raise _degree_cap(sum(e))
        terms.append((pk.pack(pk.order.key(e)), pk.pack(e), c))
    terms.sort(key=lambda t: t[0], reverse=True)
    return _strip_content(terms)


def _to_multipoly(p, variables, pk: _Packing, monic=True) -> MultiPoly:
    lead = p[0][2] if p and monic else 1
    return MultiPoly(variables, {pk.unpack(e): Fraction(c, lead) for _, e, c in p})


def _head(p):
    """A nonzero polynomial as a reducer: its leading key, exponent and
    coefficient, its top degree, and the polynomial."""
    return p[0] + (max(e % DEG_MOD for _, e, _ in p), p)


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


def _divides(a, b, guard):
    """Whether packed exponent vector a divides b: no field of b - a borrows."""
    return not (b - a) & guard


def _lcm(a, b, guard):
    """Fieldwise maximum of two packed exponent vectors: the guard bits of
    (a | guard) - b mark the fields where a >= b, and spread to value masks."""
    ge = ((a | guard) - b) & guard
    mask = ge - (ge >> (FIELD - 1))
    return b ^ ((a ^ b) & mask)


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


def _shift(p, top, kshift, eshift):
    """p times the monomial (kshift, eshift); ``top`` is p's top degree."""
    degree = top + eshift % DEG_MOD
    if degree >= LIMIT:
        raise _degree_cap(degree)
    return [(k + kshift, e + eshift, c) for k, e, c in p]


def _spoly(fh, gh, lcm, lcm_key):
    """S-polynomial of the heads fh and gh, whose leading monomials have the
    given lcm."""
    kf, ef, cf, ftop, f = fh
    kg, eg, cg, gtop, g = gh
    gamma = gcd(cf, cg)
    sf = _shift(f, ftop, lcm_key - kf, lcm - ef)
    sg = _shift(g, gtop, lcm_key - kg, lcm - eg)
    s = _merge_scaled(sf, cg // gamma, sg, -(cf // gamma))
    return _strip_content(s)


def _normal_form_internal(f, heads, guard):
    """Full normal form of f modulo the basis given by its heads,
    fraction-free."""
    leads = [h[1] for h in heads]
    done = []  # irreducible prefix; coefficients rescale as reductions proceed
    tail = f
    while tail:
        k_head, e_head, c_head = tail[0]
        for i, eg in enumerate(leads):
            if not (e_head - eg) & guard:  # _divides(eg, e_head, guard), inlined
                break
        else:
            done.append(tail[0])
            tail = tail[1:]
            continue
        kg, eg, cg, top, g = heads[i]
        m = e_head - eg
        gamma = gcd(c_head, cg)
        a = cg // gamma
        b = c_head // gamma
        if a < 0:
            a, b = -a, -b
        tail = _merge_scaled(tail, a, _shift(g, top, k_head - kg, m), -b)
        if a != 1 and done:
            done = [(k, e, c * a) for k, e, c in done]
    return _strip_content(done)


def _interreduce(heads, variables, pk: _Packing) -> list[MultiPoly]:
    """The reduced basis spanned by the heads of Groebner basis elements,
    monic, by decreasing leading term.  One ascending pass drops each element
    whose leading monomial a smaller one divides and reduces the rest against
    those done: a larger leading monomial divides no term of a smaller one."""
    done = []
    for h in sorted(heads, key=itemgetter(0)):
        if not any(_divides(d[1], h[1], pk.guard) for d in done):
            done.append(_head(_normal_form_internal(h[4], done, pk.guard)))
    return [_to_multipoly(d[4], variables, pk) for d in reversed(done)]


def _gm_update(heads, pairs, pk: _Packing):
    """Gebauer-Moeller update of the pair table when the last element of
    the basis, given by its ``heads``, joins it.

    ``pairs`` maps each surviving index pair (i, j), i < j, to its packed lcm
    and its selection key (graded degree of the lcm, packed order key of the
    lcm, i, j).
    Applies Buchberger's coprimality and chain criteria and returns the new
    table.
    """
    guard = pk.guard
    lm = [h[1] for h in heads]
    t = len(heads) - 1
    lt = lm[t]
    lcms = [_lcm(a, lt, guard) for a in lm[:t]]

    kept = {
        (i, j): (lij, key)
        for (i, j), (lij, key) in pairs.items()
        if not _divides(lt, lij, guard) or lcms[i] == lij or lcms[j] == lij
    }

    # group candidate pairs (i, t) by their lcm and keep one representative
    # of each minimal lcm; drop coprime-lead pairs entirely.  Packed lcms
    # compare as their exponent tuples.
    by_lcm = {}
    for i, L in enumerate(lcms):
        by_lcm.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(by_lcm, key=lambda m: (m % DEG_MOD, m)):
        if not any(_divides(M, L, guard) for M in minimal):
            minimal.append(L)
    # an lcm may reach total degree 2 * LIMIT - 2: its fields and key rows
    # still fit, and its S-polynomial raises in _shift if it is ever formed
    for L in minimal:
        if any(lm[i] + lt == L for i in by_lcm[L]):
            continue  # coprime leading monomials: S-pair reduces to zero
        i = min(by_lcm[L])
        degree = sum(map(mul, pk.weights, pk.unpack(L)))
        kept[(i, t)] = (L, (degree, pk.key(L), i, t))
    return kept


def _groebner_basis(ideal: Ideal, max_terms=DEFAULT_MAX_TERMS, max_bits=DEFAULT_MAX_BITS):
    """The pair loop: the packing of the run and the heads of a Groebner
    basis of the ideal, neither minimal nor reduced."""
    pk = _Packing(ideal.order, _grading(ideal.generators, len(ideal.variables)))
    guard = pk.guard
    gens = [_to_internal(g, pk) for g in ideal.generators if not g.is_zero]
    if not gens:
        raise ValueError("all generators are zero")

    heads = []
    total_terms = 0
    pairs: dict = {}
    for g in sorted(gens, key=lambda p: p[0][0]):
        r = _normal_form_internal(g, heads, guard)
        if r:
            heads.append(_head(r))
            total_terms += len(r)
            pairs = _gm_update(heads, pairs, pk)

    while pairs:
        lcm, (_, lcm_key, i, j) = min(pairs.values(), key=itemgetter(1))
        del pairs[(i, j)]
        s = _spoly(heads[i], heads[j], lcm, lcm_key)
        if not s:
            continue
        r = _normal_form_internal(s, heads, guard)
        if not r:
            continue
        heads.append(_head(r))
        total_terms += len(r)
        if total_terms > max_terms:
            raise ResourceLimitError(
                f"basis grew to {total_terms} terms (cap {max_terms})"
            )
        maxbits = max(abs(c).bit_length() for _, _, c in r)
        if maxbits > max_bits:
            raise ResourceLimitError(
                f"coefficient reached {maxbits} bits (cap {max_bits})"
            )
        pairs = _gm_update(heads, pairs, pk)
    return pk, heads


def buchberger(
    ideal: Ideal,
    max_terms: int = DEFAULT_MAX_TERMS,
    max_bits: int = DEFAULT_MAX_BITS,
) -> list[MultiPoly]:
    """Reduced, monic Groebner basis under the ideal's monomial order, sorted
    by decreasing leading term.

    One table maps each surviving critical pair to its lcm and selection key;
    the Gebauer-Moeller criteria prune it as the basis grows.  Pair selection
    follows the normal strategy in the ideal's own grading ("sugar": Giovini,
    Mora, Niesi, Robbiano and Traverso, ISSAC 1991): the entry with the least
    (lcm degree, lcm under the order, pair index) is reduced next, the degree
    weighing the variables so that every generator is homogeneous when such
    positive weights are unique up to scale, and the total degree otherwise.
    Raises ResourceLimitError when the basis exceeds ``max_terms`` stored
    terms, any coefficient exceeds ``max_bits`` bits, or a monomial reaches
    total degree LIMIT.
    """
    pk, heads = _groebner_basis(ideal, max_terms, max_bits)
    return _interreduce(heads, ideal.variables, pk)


def normal_form(f: MultiPoly, basis, order: MonomialOrder | None = None) -> MultiPoly:
    """Full remainder of f modulo a list of polynomials under ``order``
    (default grevlex), scaled to coprime integer coefficients.  Raises
    ResourceLimitError when a monomial reaches total degree LIMIT."""
    pk = _Packing(order or grevlex_order(len(f.variables)))
    internal = [_to_internal(g, pk) for g in basis if not g.is_zero]
    heads = [_head(g) for g in internal]
    r = _normal_form_internal(_to_internal(f, pk), heads, pk.guard)
    return _to_multipoly(r, f.variables, pk, monic=False)


def eliminate(ideal: Ideal, **caps) -> list[MultiPoly]:
    """Basis of the elimination ideal: the reduced Groebner elements free of
    the variables the ideal's order eliminates.

    Those are the first ``ideal.order.split`` variables, the leading block of
    an ``elimination_order``; grevlex and lex eliminate none, so the whole
    basis is returned.  Only the elements whose leading monomial is free of
    the block are interreduced: under a block order they have no eliminated
    variable in any term (Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 3).
    """
    pk, heads = _groebner_basis(ideal, **caps)
    free = 1 << FIELD * (ideal.order.nvars - ideal.order.split)  # the block's lowest bit
    return _interreduce([h for h in heads if h[1] < free], ideal.variables, pk)


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
    if _form_degree(p) < 2:
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
