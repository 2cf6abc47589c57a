import random
from fractions import Fraction
from math import inf

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kippenhahn.exactnum import ParseError, RationalInterval, UniPoly
from kippenhahn.mpoly import (
    MonomialOrder,
    MultiPoly,
    elimination_order,
    grevlex_order,
    lex_order,
    parse_poly,
    poly_gcd,
)

V3 = ("x0", "x1", "x2")

APPENDIX_P = "x0^3 - 3/4*x2*x0^2 - 2*x1^2*x0 - 21/16*x2^2*x0 + 55/64*x2^3 - 3/2*x1^2*x2"


def fermat():
    return parse_poly("x0^6 - x1^6 - x2^6", V3)


def appendix_p():
    return parse_poly(APPENDIX_P, V3)


def random_poly(rng, nterms=6, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(3))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return MultiPoly(V3, terms)


def to_sympy(f):
    xs = sympy.symbols(" ".join(f.variables))
    expr = 0
    for exp, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, exp):
            term *= x**e
        expr += term
    return expr, xs


def from_sympy(expr, xs):
    poly = sympy.Poly(expr, *xs)
    return MultiPoly(
        V3, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}
    )


class TestArithmetic:
    def test_difference_of_squares(self):
        f = parse_poly("x0 + x1", V3)
        g = parse_poly("x0 - x1", V3)
        assert f * g == parse_poly("x0^2 - x1^2", V3)

    def test_fermat_completion(self):
        assert fermat() + parse_poly("x1^6 + x2^6", V3) == parse_poly("x0^6", V3)

    def test_annihilator(self):
        f = appendix_p()
        assert (f * MultiPoly(V3)).is_zero

    def test_variable_mismatch(self):
        f = parse_poly("x0", V3)
        g = parse_poly("y0", ("y0", "y1", "y2"))
        with pytest.raises(ValueError):
            f + g

    def test_mul_against_sympy(self):
        rng = random.Random(41)
        for _ in range(10):
            f, g = random_poly(rng), random_poly(rng)
            ef, xs = to_sympy(f)
            eg, _ = to_sympy(g)
            eprod, _ = to_sympy(f * g)
            assert sympy.expand(ef * eg - eprod) == 0


class TestDerivative:
    def test_fermat_monomial_rule(self):
        assert fermat().diff(0) == parse_poly("6*x0^5", V3)

    def test_appendix_p_partial_x2(self):
        # independent symbolic oracle
        f = appendix_p()
        expr, xs = to_sympy(f)
        expected, _ = to_sympy(f.diff(2))
        assert sympy.expand(sympy.diff(expr, xs[2]) - expected) == 0
        assert f.diff(2) == parse_poly(
            "-3/4*x0^2 - 42/16*x2*x0 + 165/64*x2^2 - 3/2*x1^2", V3
        )

    def test_constant(self):
        assert MultiPoly.constant(V3, 5).diff(1).is_zero


class TestHomogeneity:
    def test_appendix_p(self):
        assert appendix_p().homogeneous_degree() == 3

    def test_fermat(self):
        assert fermat().homogeneous_degree() == 6

    def test_mixed(self):
        assert parse_poly("x0 + x1^2", V3).homogeneous_degree() is None

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            MultiPoly(V3).homogeneous_degree()

    def test_zero_degree_sentinel(self):
        assert MultiPoly(V3).total_degree == -inf

    def test_euler_identity(self):
        rng = random.Random(17)
        for _ in range(20):
            d = rng.randint(1, 5)
            terms = {}
            for _ in range(5):
                e0 = rng.randint(0, d)
                e1 = rng.randint(0, d - e0)
                terms[(e0, e1, d - e0 - e1)] = Fraction(rng.randint(-9, 9))
            f = MultiPoly(V3, terms)
            if f.is_zero:
                continue
            euler = sum(
                (MultiPoly.variable(V3, i) * f.diff(i) for i in range(3)),
                MultiPoly(V3),
            )
            assert euler == d * f


class TestEvaluate:
    def test_on_curve_point(self):
        assert fermat().evaluate((1, 1, 0)) == 0

    def test_parabola_vertex(self):
        p = parse_poly("x0^2 + x0*x2 - x1^2", V3)
        assert p.evaluate((1, 0, -1)) == 0

    def test_multiplicative(self):
        rng = random.Random(19)
        for _ in range(20):
            f, g = random_poly(rng), random_poly(rng)
            pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)

    def test_gaussian_point(self):
        p = parse_poly("x0^2 + x1^2", V3)
        # Gaussian integers as Python complex numbers: the generic ring path
        assert p.evaluate((1 + 0j, 1j, 0j)) == 0

    def test_interval_point(self):
        p = parse_poly("x0^2 - x1", V3)
        iv = p.evaluate((RationalInterval(1, 2), RationalInterval(0, 1), 0))
        assert iv.lo <= 3 <= iv.hi  # 2^2 - 1

    def test_interval_evaluation_at_tangency_point(self):
        # the sextic vanishes at (1, (-1+ia)/(2w), (-1-ia)/(2w)) where w, a
        # are the algebraic numbers with w^12 = 11 w^6 + 1 and a^2 = 5+2*sqrt5;
        # its terms, summed as ComplexInterval products, must enclose zero
        # in a tiny box
        from kippenhahn.exactnum import AlgebraicReal, ComplexInterval

        eps = Fraction(1, 10**30)
        w = AlgebraicReal((-1, 0, 0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 1),
                          RationalInterval(1, 2)).refine(eps)
        a = AlgebraicReal((5, 0, -10, 0, 1), RationalInterval(3, 4)).refine(eps)
        inv2w = (w * 2).reciprocal()
        point = (ComplexInterval(1), ComplexInterval(-inv2w, a * inv2w),
                 ComplexInterval(-inv2w, -(a * inv2w)))
        val = None
        for exp, c in fermat().terms.items():
            term = ComplexInterval(c)
            for x, e in zip(point, exp):
                for _ in range(e):
                    term = term * x
            val = term if val is None else val + term
        assert val.contains_zero()
        assert float(val.re.width) < 1e-20 and float(val.im.width) < 1e-20


def _range_of_term(c, point, exp):
    """Exact range of c * prod x_i^e_i over a box, a Fraction when no factor
    is an interval: the range of x^e from its candidate extremes (the ends,
    and 0 inside), then endpoint products of independent factors."""
    lo = hi = c
    boxed = False
    for v, e in zip(point, exp):
        if not e:
            continue
        if isinstance(v, RationalInterval):
            boxed = True
            a, b = v.lo, v.hi
        else:
            a = b = Fraction(v)
        cands = [a**e, b**e] + ([Fraction(0)] if a < 0 < b else [])
        plo, phi = min(cands), max(cands)
        prods = [x * y for x in (lo, hi) for y in (plo, phi)]
        lo, hi = min(prods), max(prods)
    return lo, hi, boxed


def _reference_evaluate(f, point):
    """Term-by-term sum of the exact term ranges: an interval once a term
    involves an interval coordinate, else a Fraction."""
    lo = hi = Fraction(0)
    boxed = False
    for exp, c in f.terms.items():
        tlo, thi, tboxed = _range_of_term(c, point, exp)
        lo, hi, boxed = lo + tlo, hi + thi, boxed or tboxed
    return RationalInterval(lo, hi) if boxed else lo


def _xy(terms):
    return MultiPoly(("x", "y"), terms)


_coef = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_poly2 = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), _coef, max_size=6
).map(_xy)
_num = st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=8)
_box = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=16), min_size=2, max_size=2
).map(sorted).map(lambda ends: RationalInterval(*ends))


class TestEvaluateOnIntegers:
    """Evaluation at rationals and rational boxes, which runs on integers over
    one common denominator, against term-by-term references."""

    @settings(max_examples=300, deadline=None)
    @given(_poly2, st.tuples(_box | _num, _box | _num))
    @example(_xy({}), (RationalInterval(-1, 2), 3))  # zero polynomial
    @example(_xy({(0, 0): Fraction(-5, 3)}), (RationalInterval(-1, 2), RationalInterval(0, 1)))
    # even and odd powers over boxes straddling 0
    @example(
        _xy({(2, 0): 1, (0, 3): Fraction(1, 2)}),
        (RationalInterval(Fraction(-1, 2), 2), RationalInterval(-2, Fraction(1, 3))),
    )
    # a point interval beside a number
    @example(_xy({(4, 1): -2, (1, 0): 1}), (RationalInterval.point(Fraction(1, 3)), Fraction(-2, 7)))
    # numbers beside intervals, the interval's variable absent or present
    @example(_xy({(2, 0): 1, (0, 0): 3}), (3, RationalInterval(0, 1)))
    @example(
        _xy({(2, 2): Fraction(3, 4), (0, 1): -1}),
        (-2, RationalInterval(Fraction(-3, 2), Fraction(-1, 4))),
    )
    def test_box_matches_term_by_term_ranges(self, f, point):
        got = f.evaluate(point)
        expected = _reference_evaluate(f, point)
        assert type(got) is type(expected) and got == expected
        if isinstance(got, RationalInterval):
            assert type(got.lo) is Fraction and type(got.hi) is Fraction

    @settings(max_examples=200, deadline=None)
    @given(_poly2, st.tuples(_num, _num))
    def test_rational_point_matches_the_generic_loop(self, f, point):
        expected = Fraction(0)
        for exp, c in f.terms.items():
            term = c
            for v, e in zip(point, exp):
                term *= Fraction(v) ** e
            expected += term
        got = f.evaluate(point)
        assert type(got) is Fraction and got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        _poly2,
        st.tuples(_box, _box),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16), min_size=4, max_size=4),
    )
    @example(_xy({(2, 0): 1, (1, 1): -3, (0, 0): 1}), (RationalInterval(-1, 2), RationalInterval(-2, 1)),
             [Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(1)])
    def test_sub_box_value_lies_in_the_box_value(self, f, box, cuts):
        # inclusion isotone: the census drops a pair whose coarse box
        # excludes zero, because every finer box inside gives a value inside
        sub = tuple(
            RationalInterval(v.lo + v.width * min(c), v.lo + v.width * max(c))
            for v, c in zip(box, (cuts[:2], cuts[2:]))
        )

        def ends(v):
            return (v.lo, v.hi) if isinstance(v, RationalInterval) else (v, v)

        (lo, hi), (sub_lo, sub_hi) = ends(f.evaluate(box)), ends(f.evaluate(sub))
        assert lo <= sub_lo <= sub_hi <= hi

    def test_interval_point_stays_fraction_off_its_variable(self):
        # no term involves the interval coordinate: the value is a Fraction
        f = _xy({(2, 0): 1, (0, 0): 3})
        assert f.evaluate((3, RationalInterval(0, 1))) == Fraction(12)
        point = (RationalInterval(2, 2), RationalInterval(0, 1))
        assert type(f.evaluate(point)) is RationalInterval


_sparse2 = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), _coef, max_size=8
).map(_xy)
_shift = (
    st.integers(-4, 4)
    | st.fractions(min_value=-3, max_value=3, max_denominator=8)
    | st.fractions(min_value=-2, max_value=2, max_denominator=10**15)
)


class TestTaylorShift:
    """``shifted`` is a binomial Taylor shift on integers; it must give the
    very polynomial the generic loop gives at ``MultiPoly`` points."""

    @settings(max_examples=200, deadline=None)
    @given(_sparse2, st.tuples(_shift, _shift))
    @example(_xy({}), (1, Fraction(-1, 3)))  # zero polynomial
    @example(_xy({(3, 2): Fraction(5, 6), (0, 4): -1, (1, 0): 2}), (0, 0))
    @example(_xy({(4, 1): Fraction(-2, 3), (2, 3): 7}), (Fraction(-5, 4), -3))
    @example(
        _xy({(5, 0): 1, (2, 2): Fraction(1, 6), (0, 1): -4}),
        (Fraction(-123456789, 10**15 - 11), Fraction(987654321, 2**50 + 1)),
    )
    def test_matches_the_generic_loop(self, f, shift):
        u, v = (MultiPoly.variable(f.variables, i) for i in (0, 1))
        got = f.shifted(shift)
        assert got == f.evaluate((u + shift[0], v + shift[1]))
        assert got.variables == f.variables
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_three_variables_and_length_check(self):
        f = appendix_p()
        shift = (Fraction(1, 2), -3, Fraction(-7, 5))
        xs = [MultiPoly.variable(V3, i) + c for i, c in enumerate(shift)]
        assert f.shifted(shift) == f.evaluate(xs)
        with pytest.raises(ValueError, match="shift length"):
            f.shifted((1, 2))


class TestCoefficients:
    def test_both_variables(self):
        f = parse_poly("3*a^2*b + a*b^2 - 2*b + 5", ("a", "b"))
        assert f.coefficients(0) == [UniPoly([5, -2]), UniPoly([0, 0, 1]), UniPoly([0, 3])]
        assert f.coefficients(1) == [UniPoly([5]), UniPoly([-2, 0, 3]), UniPoly([0, 1])]

    def test_zero_gives_one_zero_column(self):
        assert MultiPoly(("a", "b")).coefficients(1) == [UniPoly([])]


class TestSquarefree:
    def test_perfect_square(self):
        f = parse_poly("x0 + x1", V3)
        assert (f * f).squarefree_part().proportional_to(f)

    def test_idempotent_on_squarefree(self):
        f = appendix_p()
        assert f.squarefree_part().proportional_to(f)

    def test_mixed_multiplicity(self):
        f = parse_poly("x0^2 - x1^2", V3) * parse_poly("x0 - x1", V3)
        assert f.squarefree_part().proportional_to(parse_poly("x0^2 - x1^2", V3))

    def test_gcd_with_partials_is_constant(self):
        # squarefree means the joint gcd with all partials is constant
        rng = random.Random(29)
        for _ in range(10):
            f = random_poly(rng, nterms=4, maxdeg=3)
            if f.is_zero or f.total_degree == 0:
                continue
            s = f.squarefree_part()
            g = s
            for i in range(3):
                d = s.diff(i)
                if not d.is_zero:
                    g = poly_gcd(g, d)
            assert g.total_degree == 0

    def test_gcd_against_sympy(self):
        # a common factor c planted in random trivariate f and g: the gcd
        # is c times gcd(f, g), which the sympy oracle computes on its own
        rng = random.Random(43)
        for _ in range(60):
            c = random_poly(rng, nterms=3, maxdeg=2)
            f = random_poly(rng, nterms=4, maxdeg=2) * c
            g = random_poly(rng, nterms=4, maxdeg=2) * c
            if f.is_zero or g.is_zero:
                continue
            ef, xs = to_sympy(f)
            eg, _ = to_sympy(g)
            expected = from_sympy(sympy.gcd(ef, eg), xs)
            assert poly_gcd(f, g).proportional_to(expected)

    def test_degree_seven_squarefree_part(self):
        f = parse_poly("x0^6 - x1^6 - x2^6 + x0^3*x1*x2^2", V3)
        line = parse_poly("x0 - 2*x1 + 3*x2", V3)
        assert (f * line * line).squarefree_part().proportional_to(f * line)


class TestOrders:
    def test_grevlex_degree_first(self):
        order = grevlex_order(3)
        assert order.key((2, 0, 0)) > order.key((1, 1, 0)) > order.key((0, 0, 2))

    def test_grevlex_built_once(self):
        rng = random.Random(29)
        for n in range(1, 7):
            order = grevlex_order(n)
            assert grevlex_order(n) is order
            fresh = MonomialOrder("grevlex", n)
            assert order == fresh and order.rows == fresh.rows
            exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(40)]
            assert sorted(exps, key=order.key) == sorted(exps, key=fresh.key)

    def test_lex(self):
        order = lex_order(3)
        assert order.key((1, 0, 0)) > order.key((0, 5, 5))

    def test_block_elimination_dominates(self):
        rng = random.Random(31)
        order = elimination_order(6, 3)
        for _ in range(200):
            m1 = tuple(rng.randint(0, 4) for _ in range(6))
            m2 = (0, 0, 0) + tuple(rng.randint(0, 9) for _ in range(3))
            if sum(m1[:3]) == 0:
                continue
            assert order.key(m1) > order.key(m2)

    def test_key_additivity(self):
        rng = random.Random(37)
        for order in (grevlex_order(3), lex_order(3), elimination_order(6, 3)):
            n = order.nvars
            for _ in range(50):
                a = tuple(rng.randint(0, 6) for _ in range(n))
                b = tuple(rng.randint(0, 6) for _ in range(n))
                ab = tuple(x + y for x, y in zip(a, b))
                joint = tuple(
                    x + y for x, y in zip(order.key(a), order.key(b))
                )
                assert order.key(ab) == tuple(joint)


class TestTextFormat:
    def test_appendix_roundtrip(self):
        f = appendix_p()
        assert parse_poly(str(f), V3) == f

    def test_whitespace_and_order_tolerant(self):
        a = parse_poly("x1^2   +x0 ", V3)
        b = parse_poly("x0 + x1^2", V3)
        assert a == b

    def test_signs(self):
        assert parse_poly("-x0 - -x1", V3) == parse_poly("x1 - x0", V3)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x0 + z3", V3)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_poly("   ", V3)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator in '3/0'") as exc:
            parse_poly("x1 - 3/0*x0^2", V3)
        assert exc.value.column == 6

    def test_normalized_golden_form(self):
        f = appendix_p()
        n = (f * Fraction(-64, 7)).normalized()
        assert n == f * 64  # content-1 integers, positive lead
