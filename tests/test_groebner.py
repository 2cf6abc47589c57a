import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder
from sympy.polys.orderings import grevlex as sympy_grevlex

from kippenhahn import groebner
from kippenhahn.groebner import (
    LIMIT,
    Ideal,
    NonPrincipalIdealError,
    ResourceLimitError,
    buchberger,
    dual_curve,
    eliminate,
    normal_form,
)
from kippenhahn.matrixpencil import pencil_det
from kippenhahn.mpoly import (
    MultiPoly,
    elimination_order,
    grevlex_order,
    lex_order,
    parse_poly,
)

V3 = ("x0", "x1", "x2")

APPENDIX_P = "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2"
APPENDIX_Q = (
    "1485*y0^6 - 3672*y2*y0^5 - 15282*y1^2*y0^4 - 2448*y2^2*y0^4 + 12032*y2^3*y0^3"
    " - 19872*y1^2*y2*y0^3 + 9504*y1^4*y0^2 - 5376*y2^4*y0^2 + 21312*y1^2*y2^2*y0^2"
    " - 6144*y2^5*y0 + 13824*y1^2*y2^3*y0 + 27648*y1^4*y2*y0 + 864*y1^6 + 4096*y2^6"
    " - 4608*y1^2*y2^4 + 13824*y1^4*y2^2"
)
VY = ("y0", "y1", "y2")


def twisted_cubic_ideal():
    f1 = parse_poly("x0^2 - x1", V3)
    f2 = parse_poly("x0^3 - x2", V3)
    return Ideal([f1, f2], lex_order(3))


class TestBuchberger:
    def test_twisted_cubic_contains_eliminant(self):
        gb = buchberger(twisted_cubic_ideal())
        target = parse_poly("x1^3 - x2^2", V3)
        assert any(g.proportional_to(target) for g in gb)

    def test_principal_ideal(self):
        f = parse_poly("x0^2 - x1^2 - x2^2", V3)
        gb = buchberger(Ideal([f]))
        assert len(gb) == 1 and gb[0].proportional_to(f)

    def test_unit_ideal(self):
        gb = buchberger(
            Ideal(
                [
                    parse_poly("x0", V3),
                    parse_poly("x1", V3),
                    MultiPoly.constant(V3, 1),
                ]
            )
        )
        assert len(gb) == 1 and gb[0] == MultiPoly.constant(V3, 1)

    def test_spolynomials_reduce_to_zero(self):
        for ideal in (
            twisted_cubic_ideal(),
            Ideal(
                [
                    parse_poly("x0^2 + x1^2 + x2^2 - 1", V3),
                    parse_poly("x0 - x1^2", V3),
                ]
            ),
        ):
            gb = buchberger(ideal)
            order = ideal.order
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    ei, ci = gb[i].leading_term(order)
                    ej, cj = gb[j].leading_term(order)
                    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                    mi = {tuple(a - b for a, b in zip(lcm, ei)): 1 / ci}
                    mj = {tuple(a - b for a, b in zip(lcm, ej)): 1 / cj}
                    s = MultiPoly(gb[i].variables, mi) * gb[i] - MultiPoly(
                        gb[j].variables, mj
                    ) * gb[j]
                    if s.is_zero:
                        continue
                    assert normal_form(s, list(gb), order).is_zero

    def test_reduced_basis_shape(self):
        ideal = twisted_cubic_ideal()
        gb = buchberger(ideal)
        order = ideal.order
        lms = [g.leading_term(order)[0] for g in gb]
        # monic leading coefficients, no leading monomial divides another
        for g in gb:
            assert g.leading_term(order)[1] == 1
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_determinism(self):
        a = buchberger(twisted_cubic_ideal())
        b = buchberger(twisted_cubic_ideal())
        assert [g.terms for g in a] == [g.terms for g in b]

    def test_order_belongs_to_the_ideal(self):
        # a lex basis element equals the polynomial it came from: the same
        # proportionality class and the same normalized form
        f = parse_poly("x0 - x1^2", V3)
        (g,) = buchberger(Ideal([f], lex_order(3)))
        assert g.proportional_to(f) and f.proportional_to(g)
        assert g.normalized() == f.normalized()

    def test_resource_cap(self):
        gens = [
            parse_poly("x0^4 + x1^3 - x2", V3),
            parse_poly("x0^3*x1 + x2^3 - x1", V3),
            parse_poly("x1^4 - x0*x2 - x2^2", V3),
        ]
        with pytest.raises(ResourceLimitError):
            buchberger(Ideal(gens), max_terms=8)


class TestEliminate:
    def test_twisted_cubic(self):
        order = elimination_order(3, 1)
        f1 = parse_poly("x0^2 - x1", V3)
        f2 = parse_poly("x0^3 - x2", V3)
        basis = eliminate(Ideal([f1, f2], order))
        assert len(basis) == 1
        assert basis[0].proportional_to(parse_poly("x1^3 - x2^2", V3))

    def test_eliminate_nothing(self):
        gb = eliminate(twisted_cubic_ideal())
        assert len(gb) >= 2

    def test_unit_ideal(self):
        order = elimination_order(3, 1)
        basis = eliminate(Ideal([MultiPoly.constant(V3, 1)], order))
        assert len(basis) == 1 and basis[0] == MultiPoly.constant(V3, 1)


def tangency_generators(p):
    """The generators of ``dual_curve``'s tangency ideal of p in x0..x2, y0..y2."""
    ring = V3 + VY
    lift = MultiPoly(ring, {e + (0, 0, 0): c for e, c in p.terms.items()})
    return [lift] + [lift.diff(i) - MultiPoly.variable(ring, 3 + i) for i in range(3)]


class TestGrading:
    @pytest.mark.parametrize("curve", ["x0^6 - x1^6 - x2^6", APPENDIX_P])
    def test_tangency_ideal(self, curve):
        p = parse_poly(curve, V3)
        d = p.homogeneous_degree()
        assert groebner._grading(tangency_generators(p), 6) == (1, 1, 1, d - 1, d - 1, d - 1)

    def test_eq3_tangency_ideal(self, eq3_pencil):
        p = pencil_det(eq3_pencil)
        assert groebner._grading(tangency_generators(p), 6) == (1, 1, 1, 2, 2, 2)

    def test_gcd_ideal_has_no_positive_grading(self):
        # t*f and (1 - t)*g force weight 0 on t: grade by total degree
        ring = ("t",) + V3
        t = MultiPoly.variable(ring, 0)
        f, g = (parse_poly(c, ring) for c in ("x0^2 - x1*x2", "x0*x1 + x2^2"))
        assert groebner._grading([t * f, (1 - t) * g], 4) is None

    def test_homogeneous_ideal(self):
        gens = [parse_poly(c, V3) for c in ("x0^2 - x1*x2", "x0*x1 + 3*x2^2 - x1^2")]
        assert groebner._grading(gens, 3) == (1, 1, 1)

    @pytest.mark.parametrize(
        "gens",
        [["x0*x1 - x2^2"], ["x0 - 1", "x1^2 - x2"], ["x0^2 - x1", "x1^2 - x0"]],
        ids=["not-unique", "constant-term", "no-positive"],
    )
    def test_falls_back_to_total_degree(self, gens):
        assert groebner._grading([parse_poly(c, V3) for c in gens], 3) is None

    def test_dual_curve_work(self, monkeypatch):
        # a work guard: graded selection and the elimination block's own
        # interreduction take 617 normal forms on the Fermat sextic's dual,
        # where total-degree selection and a full interreduction took 1,662
        calls = []
        full = groebner._normal_form_internal
        monkeypatch.setattr(
            groebner, "_normal_form_internal", lambda *a: calls.append(1) or full(*a)
        )
        dual_curve(parse_poly("x0^6 - x1^6 - x2^6", V3))
        assert len(calls) == 617


@st.composite
def block_ideal(draw):
    """2-3 generators of 2-4 terms, degree <= 3, in 2-4 variables, under an
    elimination order of a random leading block."""
    n = draw(st.integers(2, 4))
    exps = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )
    coefs = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(Fraction)
    variables = tuple(f"x{i}" for i in range(n))
    gens = draw(
        st.lists(
            st.dictionaries(exps, coefs, min_size=2, max_size=4).map(
                lambda t: MultiPoly(variables, t)
            ),
            min_size=2,
            max_size=3,
        )
    )
    return Ideal(gens, elimination_order(n, draw(st.integers(1, n - 1))))


class TestEliminateIsTheFreePart:
    @settings(max_examples=60, deadline=None)
    @given(block_ideal())
    def test_matches_buchberger(self, ideal):
        split = ideal.order.split
        try:
            full = buchberger(ideal, max_terms=2000)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                eliminate(ideal, max_terms=2000)
            return
        free = [g for g in full if not any(any(e[:split]) for e in g.terms)]
        assert [g.terms for g in eliminate(ideal, max_terms=2000)] == [g.terms for g in free]


def reference_key(order, exp):
    """The orders by their textbook keys: grevlex (deg, -e_n, ..., -e_1),
    blockwise for a block order, the exponents themselves for lex."""
    if order.kind == "lex":
        return exp
    blocks = [exp[: order.split], exp[order.split :]] if order.kind == "block" else [exp]
    return sum(((sum(b),) + tuple(-e for e in reversed(b)) for b in blocks), ())


@st.composite
def packed_case(draw):
    """An order on 1-6 variables and two exponent vectors whose entries lean
    to 0, small values and LIMIT - 1, each of total degree below LIMIT."""
    n = draw(st.integers(1, 6))
    kinds = ["grevlex", "lex"] + (["block"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "block":
        order = elimination_order(n, draw(st.integers(1, n - 1)))
    else:
        order = grevlex_order(n) if kind == "grevlex" else lex_order(n)

    def monomial():
        degree = draw(st.one_of(st.integers(0, 4), st.just(LIMIT - 1), st.integers(0, LIMIT - 1)))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))

    return order, monomial(), monomial()


class TestPackedMonomials:
    """The packed exponent vectors and keys inside ``buchberger`` against
    the tuple definitions."""

    @settings(max_examples=300, deadline=None)
    @given(packed_case())
    def test_agrees_with_tuples(self, case):
        order, a, b = case
        pk = groebner._Packing(order)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        assert groebner._divides(pa, pb, pk.guard) == all(x <= y for x, y in zip(a, b))
        assert groebner._divides(pa, pa, pk.guard)
        assert pk.unpack(groebner._lcm(pa, pb, pk.guard)) == tuple(map(max, a, b))
        assert pa % groebner.DEG_MOD == sum(a)
        assert (pa < pb) == (a < b)
        ka, kb = pk.key(pa), pk.key(pb)
        assert ka == pk.pack(order.key(a))
        assert (ka < kb) == (order.key(a) < order.key(b)) == (
            reference_key(order, a) < reference_key(order, b)
        )
        assert (ka == kb) == (a == b)
        if sum(a) + sum(b) < LIMIT:
            ab = tuple(x + y for x, y in zip(a, b))
            assert pk.unpack(pa + pb) == ab
            assert ka + kb == pk.key(pa + pb)
            assert groebner._divides(pa, pa + pb, pk.guard)

    def test_pair_table_selection_key(self):
        # each critical pair carries (lcm degree, packed key of the lcm, i, j)
        order = lex_order(3)
        pk = groebner._Packing(order)
        gens = [parse_poly(t, V3) for t in ("x0^2 - x1", "x0*x2^3 - 1", "x1^2*x2 + x0")]
        heads, pairs = [], {}
        for g in gens:
            heads.append(groebner._head(groebner._to_internal(g, pk)))
            pairs = groebner._gm_update(heads, pairs, pk)
        assert pairs
        for (i, j), (lcm, key) in pairs.items():
            exp = pk.unpack(lcm)
            assert exp == tuple(map(max, pk.unpack(heads[i][1]), pk.unpack(heads[j][1])))
            assert key == (sum(exp), pk.pack(order.key(exp)), i, j)

    def test_exponent_limit(self):
        x0, x1 = (MultiPoly.variable(V3, i) for i in range(2))
        below = x0 ** (LIMIT - 1) - 1
        (g,) = buchberger(Ideal([below]))
        assert g == below
        assert normal_form(below, [x0 - 1]).is_zero
        with pytest.raises(ResourceLimitError):
            buchberger(Ideal([x0**LIMIT - 1]))
        with pytest.raises(ResourceLimitError):
            normal_form(x0**LIMIT, [x0 - 1])

    def test_products_past_the_limit_raise(self):
        # each input is below the limit; the S-pair's lcm x0^(LIMIT-1)*x1 and
        # the lex reduction of x0^(LIMIT-1) by x0 -> x1^2 reach it
        x0, x1 = (MultiPoly.variable(V3, i) for i in range(2))
        with pytest.raises(ResourceLimitError):
            buchberger(Ideal([x0 ** (LIMIT - 1) - x1, x0 * x1 - 1]))
        with pytest.raises(ResourceLimitError):
            normal_form(x0 ** (LIMIT - 1), [x0 - x1**2], lex_order(3))
        assert normal_form(x0**3, [x0 - x1**2], lex_order(3)) == x1**6


SYM3 = sympy.symbols(V3)


def random_small_ideal(seed):
    """2-3 generators of degree <= 3 in x0, x1, x2, each of 2-4 terms with
    coefficients in [-3, 3]."""
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        n = rng.randint(2, 4)
        while len(terms) < n:
            d = rng.randint(0, 3)
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            terms[(a, b, d - a - b)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(MultiPoly(V3, terms))
    return gens


def random_ideal(seed, n):
    """2-3 generators of degree <= 3 in x0, ..., x(n-1), each of 2-4 terms
    with coefficients in [-3, 3]."""
    rng = random.Random(seed)
    variables = tuple(f"x{i}" for i in range(n))
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        k = rng.randint(2, 4)
        while len(terms) < k:
            exp = [0] * n
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(n)] += 1
            terms[tuple(exp)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(MultiPoly(variables, terms))
    return gens


def random_weighted_ideal(seed):
    """2-3 generators in x0, x1, x2, each of 2-4 terms of one weighted degree
    under unequal weights, with coefficients in [-3, 3]; drawn until the
    weights are the ideal's own grading, so that pairs are selected by them."""
    rng = random.Random(seed)
    while True:
        weights = rng.choice([(1, 2, 3), (2, 1, 1), (1, 1, 2), (3, 1, 2), (2, 3, 1)])
        gens = []
        for _ in range(rng.randint(2, 3)):
            degree = rng.randint(3, 6)
            exps = [
                (a, b, c)
                for a in range(degree + 1)
                for b in range(degree + 1)
                for c in range(degree + 1)
                if a * weights[0] + b * weights[1] + c * weights[2] == degree
            ]
            if len(exps) < 2:
                continue
            picked = rng.sample(exps, min(len(exps), rng.randint(2, 4)))
            gens.append(
                MultiPoly(V3, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in picked})
            )
        if len(gens) >= 2 and groebner._grading(gens, 3) == weights:
            return gens


def sympy_groebner(gens, order):
    """sympy's reduced Groebner basis of the ideal, as MultiPoly."""
    variables = gens[0].variables
    syms = sympy.symbols(variables)
    exprs = [
        sympy.Poly.from_dict({e: int(c) for e, c in f.normalized().terms.items()}, *syms)
        for f in gens
    ]
    return [
        MultiPoly(variables, {e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()})
        for g in sympy.groebner(exprs, *syms, order=order).polys
    ]


def normalized_set(polys):
    return sorted(str(f.normalized()) for f in polys)


class TestMatchesSympy:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name, order", [("grevlex", grevlex_order(3)), ("lex", lex_order(3))])
    def test_reduced_basis(self, seed, name, order):
        gens = random_small_ideal(seed)
        ours = buchberger(Ideal(gens, order))
        assert normalized_set(ours) == normalized_set(sympy_groebner(gens, name))

    # quasi-homogeneous ideals: the graded strategy weighs the variables
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name, order", [("grevlex", grevlex_order(3)), ("lex", lex_order(3))])
    def test_reduced_basis_weighted(self, seed, name, order):
        gens = random_weighted_ideal(seed)
        ours = buchberger(Ideal(gens, order))
        assert normalized_set(ours) == normalized_set(sympy_groebner(gens, name))

    @pytest.mark.parametrize("seed", range(12))
    def test_elimination_ideal(self, seed):
        # the x0-free members of a lex basis generate I ∩ Q[x1, x2]; each side
        # is a Groebner basis of it under its own order
        gens = random_small_ideal(seed)
        ref = [g for g in sympy_groebner(gens, "lex") if not any(e[0] for e in g.terms)]
        order = elimination_order(3, 1)
        ours = eliminate(Ideal(gens, order))
        assert all(normal_form(g, ref, lex_order(3)).is_zero for g in ours)
        assert all(normal_form(g, ours, order).is_zero for g in ref)

    # four to six variables: packed exponents and keys span that many fields
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n, split", [(4, 2), (6, 3)])
    def test_block_order_basis(self, seed, n, split):
        gens = random_ideal(seed, n)
        product = ProductOrder(
            (sympy_grevlex, lambda m: m[:split]), (sympy_grevlex, lambda m: m[split:])
        )
        ours = buchberger(Ideal(gens, elimination_order(n, split)))
        assert normalized_set(ours) == normalized_set(sympy_groebner(gens, product))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name, order", [("grevlex", grevlex_order(5)), ("lex", lex_order(5))])
    def test_reduced_basis_five_variables(self, seed, name, order):
        gens = random_ideal(seed, 5)
        ours = buchberger(Ideal(gens, order))
        assert normalized_set(ours) == normalized_set(sympy_groebner(gens, name))


def random_conic(rng):
    while True:
        entries = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        Q = [[entries[i][j] + entries[j][i] for j in range(3)] for i in range(3)]
        det = _det3(Q)
        if det != 0:
            return Q


def _det3(Q):
    return (
        Q[0][0] * (Q[1][1] * Q[2][2] - Q[1][2] * Q[2][1])
        - Q[0][1] * (Q[1][0] * Q[2][2] - Q[1][2] * Q[2][0])
        + Q[0][2] * (Q[1][0] * Q[2][1] - Q[1][1] * Q[2][0])
    )


def _adjugate3(Q):
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [
                [Q[r][c] for c in range(3) if c != j] for r in range(3) if r != i
            ]
            cof[i][j] = (-1) ** (i + j) * (sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
    return [[cof[j][i] for j in range(3)] for i in range(3)]


def quadratic_form(Q, variables):
    terms = {}
    for i in range(3):
        for j in range(3):
            exp = [0, 0, 0]
            exp[i] += 1
            exp[j] += 1
            key = tuple(exp)
            terms[key] = terms.get(key, Fraction(0)) + Fraction(Q[i][j])
    return MultiPoly(variables, terms)


class TestDualCurve:
    def test_conic_self_dual_diagonal(self):
        q = dual_curve(parse_poly("x0^2 - x1^2 - x2^2", V3))
        assert q.proportional_to(parse_poly("y0^2 - y1^2 - y2^2", VY))

    def test_random_conics_match_adjugate_oracle(self):
        rng = random.Random(101)
        for _ in range(6):
            Q = random_conic(rng)
            p = quadratic_form(Q, V3)
            if not p.squarefree_part().proportional_to(p):
                continue
            q = dual_curve(p)
            # dual of x^T Q x is y^T Q^{-1} y, proportional to y^T adj(Q) y
            expected = quadratic_form(_adjugate3(Q), VY)
            assert q.proportional_to(expected)

    def test_biduality_on_conics(self):
        rng = random.Random(202)
        for _ in range(4):
            Q = random_conic(rng)
            p = quadratic_form(Q, V3).normalized()
            if not p.squarefree_part().proportional_to(p):
                continue
            dd = dual_curve(dual_curve(p))
            assert dd.proportional_to(p)

    def test_gradient_points_lie_on_dual(self):
        # rational points on the parabola pencil curve: (1, t, t^2 - 1)
        p = parse_poly("x0^2 + x0*x2 - x1^2", V3)
        q = dual_curve(p)
        rng = random.Random(303)
        for _ in range(25):
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            x = (Fraction(1), t, t * t - 1)
            assert p.evaluate(x) == 0
            grad = tuple(p.diff(i).evaluate(x) for i in range(3))
            assert q.evaluate(grad) == 0

    def test_appendix_cubic_golden(self):
        q = dual_curve(parse_poly(APPENDIX_P, V3))
        assert q == parse_poly(APPENDIX_Q, VY).normalized()

    def test_dual_vanishes_on_gradient_image_exactly(self):
        # q(grad p) must be divisible by p: an oracle fully independent of
        # the elimination path
        p = parse_poly(APPENDIX_P, V3)
        q = dual_curve(p)
        composed = q.evaluate([p.diff(0), p.diff(1), p.diff(2)])
        assert normal_form(composed, [p]).is_zero

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            dual_curve(parse_poly("x0^2 - x1", V3))

    def test_rejects_nonsquarefree(self):
        f = parse_poly("x0 + x1", V3)
        with pytest.raises(ValueError):
            dual_curve(f * f)

    def test_line_pair_not_principal(self):
        # dual variety of two lines is two points: codimension 2
        with pytest.raises(NonPrincipalIdealError):
            dual_curve(parse_poly("x0^2 - x1^2", V3))
