from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespan.errors import ParseError, SizeCapExceeded, VariableMismatch
from stablespan.polynomials import (
    MAX_VARIABLES,
    GaussianRational,
    LinearForm,
    Polynomial,
    count_distinct_real_roots,
    is_real_rooted,
    parse_polynomial,
    square_free_part,
    uni_derivative,
    uni_divexact,
    uni_divmod,
    uni_gcd,
    uni_mul,
    uni_trim,
)

F = Fraction
i = GaussianRational(F(0), F(1))


def x(v, nvars=None):
    return Polynomial.variable(v, nvars)


@st.composite
def fractions(draw, lo=-4, hi=4, max_den=3):
    return F(draw(st.integers(lo, hi)), draw(st.integers(1, max_den)))


@st.composite
def polynomials(draw, max_vars=3, max_terms=4, max_exp=2):
    nvars = draw(st.integers(1, max_vars))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        used = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
        mono = tuple(sorted((v, draw(st.integers(1, max_exp))) for v in used))
        terms[mono] = draw(fractions())
    return Polynomial(terms, nvars)


@st.composite
def univariate(draw, max_deg=4):
    return [draw(fractions()) for _ in range(draw(st.integers(1, max_deg + 1)))]


class TestRingOps:
    def test_c4_product(self):
        p = (x(0, 4) + x(2, 4)) * (x(1, 4) + x(3, 4))
        expected = (
            x(0, 4) * x(1, 4) + x(0, 4) * x(3, 4) + x(1, 4) * x(2, 4) + x(2, 4) * x(3, 4)
        )
        assert p == expected

    def test_additive_identity(self):
        p = x(0, 2) * x(1, 2) + Polynomial.constant(3, 2)
        assert p + Polynomial.zero(2) == p

    def test_scale_identity(self):
        p = x(0, 2) + x(1, 2)
        assert p.scale(1) == p
        assert p.scale(0).is_zero()

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    def test_equality_ignores_ambient_nvars(self):
        assert Polynomial({((0, 1),): F(1)}, 1) == Polynomial({((0, 1),): F(1)}, 5)


class TestSubstitution:
    def test_distributes(self):
        p = x(0, 3) * x(1, 3)
        out = p.substitute_linear(0, LinearForm.of({0: 1, 2: 1}))
        assert out == x(0, 3) * x(1, 3) + x(1, 3) * x(2, 3)

    def test_square_scales(self):
        p = x(0, 1) * x(0, 1)
        assert p.substitute_linear(0, LinearForm.of({0: 2})) == p.scale(4)

    def test_linear_form_of_converts_and_drops_zeros(self):
        form = LinearForm.of({3: "3/2", 0: 2, 1: F(0), 2: "0"}, "1/3")
        assert form.coefficients == ((0, F(2)), (3, F(3, 2)))
        assert all(type(c) is F for _, c in form.coefficients)
        assert form.constant == F(1, 3)
        with pytest.raises(ValueError):
            LinearForm.of({0: 0})

    def test_identity_substitution(self):
        p = (x(0, 3) + x(2, 3)) * (x(1, 3) + Polynomial.constant(2, 3))
        assert p.substitute_linear(1, LinearForm.of({1: 1})) == p

    def test_zero_value_drops_c4_to_path(self):
        c4 = (x(0, 4) + x(2, 4)) * (x(1, 4) + x(3, 4))
        assert c4.substitute_value(3, 0) == (x(0, 4) + x(2, 4)) * x(1, 4)

    @given(polynomials(max_vars=2), fractions())
    @settings(max_examples=40, deadline=None)
    def test_substitute_value_matches_eval(self, p, value):
        q = p.substitute_value(0, value)
        point = [F(1), F(2)][: p.nvars]
        point[0] = value
        assert q.eval_rational(point) == p.eval_rational(point)


class TestRestrictAndEval:
    def test_restrict_example(self):
        p = (x(0, 4) + x(2, 4)) * (x(1, 4) + x(3, 4))
        coeffs = p.restrict_univariate({1: F(1), 2: F(2), 3: F(3)}, free=0)
        assert coeffs == [F(8), F(4)]

    def test_restrict_requires_full_assignment(self):
        p = x(0, 3) + x(1, 3)
        with pytest.raises(VariableMismatch):
            p.restrict_univariate({1: F(1)}, free=0)

    def test_positive_linear_form_root_nonpositive(self):
        form = LinearForm.of({0: 2, 1: 3, 2: 5}).to_polynomial(3)
        coeffs = form.restrict_univariate({1: F(1), 2: F(2)}, free=0)
        root = -coeffs[0] / coeffs[1]
        assert root <= 0

    def test_quadratic_case_restriction(self):
        # t*x1*x2 + x2 + x1 + 1 at x1 = i, x2 = (-3+i)/5 vanishes for t = 2
        t = F(2)
        p = Polynomial({((0, 1), (1, 1)): t, ((1, 1),): F(1), ((0, 1),): F(1), (): F(1)}, 2)
        value = p.eval_complex([i, GaussianRational(F(-3, 5), F(1, 5))])
        assert value.is_zero()

    def test_eval_at_origin_gives_constant(self):
        p = x(0, 2) * x(1, 2) + Polynomial.constant(F(7, 3), 2)
        assert p.eval_complex([GaussianRational(), GaussianRational()]) == GaussianRational(F(7, 3), F(0))

    def test_positive_form_nonzero_on_h(self):
        p = x(0, 2) + x(1, 2)
        assert p.eval_complex([i, i]) == GaussianRational(F(0), F(2))

    @given(polynomials(max_vars=2), polynomials(max_vars=2))
    @settings(max_examples=40, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q):
        point = [GaussianRational(F(1, 2), F(1)), GaussianRational(F(-1), F(2))]
        pv = Polynomial(p.terms, 2).eval_complex(point)
        qv = Polynomial(q.terms, 2).eval_complex(point)
        assert Polynomial((p + q).terms, 2).eval_complex(point) == pv + qv
        assert Polynomial((p * q).terms, 2).eval_complex(point) == pv * qv


class TestGaussianRational:
    def test_division(self):
        z = GaussianRational(F(1), F(1)) / GaussianRational(F(1), F(-2))
        assert z * GaussianRational(F(1), F(-2)) == GaussianRational(F(1), F(1))

    def test_half_plane(self):
        assert i.in_upper_half_plane()
        assert not i.conjugate().in_upper_half_plane()
        assert not GaussianRational(F(3), F(0)).in_upper_half_plane()


class TestRealRooted:
    def test_basic(self):
        assert is_real_rooted([F(-1), F(0), F(1)])  # x^2 - 1
        assert not is_real_rooted([F(1), F(0), F(1)])  # x^2 + 1

    def test_multiplicity(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert is_real_rooted([F(2), F(-3), F(0), F(1)])

    def test_degenerate(self):
        assert is_real_rooted([])
        assert is_real_rooted([F(5)])
        assert is_real_rooted([F(3), F(2)])

    def test_counts(self):
        assert count_distinct_real_roots([F(-1), F(0), F(1)]) == 2
        assert count_distinct_real_roots([F(1), F(0), F(1)]) == 0
        assert count_distinct_real_roots([F(2), F(-3), F(0), F(1)]) == 2

    @given(univariate(), univariate())
    @settings(max_examples=80, deadline=None)
    def test_multiplicative(self, p, q):
        while p and p[-1] == 0:
            p.pop()
        while q and q[-1] == 0:
            q.pop()
        if not p or not q:
            return
        assert is_real_rooted(uni_mul(p, q)) == (is_real_rooted(p) and is_real_rooted(q))

    @given(univariate(max_deg=5))
    @settings(max_examples=60, deadline=None)
    def test_square_free_part_divides(self, p):
        while p and p[-1] == 0:
            p.pop()
        if len(p) <= 1:
            return
        sq = square_free_part(p)
        g = uni_gcd(sq, uni_derivative(sq))
        assert len(g) == 1  # square-free indeed


class TestTextForm:
    def test_render(self):
        p = Polynomial({((0, 2), (2, 1)): F(3, 2), ((1, 1),): F(1)}, 3)
        assert p.to_text() == "3/2*x1^2*x3 + x2"

    def test_render_negative_and_constant(self):
        p = Polynomial({((0, 1),): F(-1), (): F(2)}, 1)
        assert p.to_text() == "-x1 + 2"

    @given(polynomials())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert parse_polynomial(p.to_text()) == p

    def test_parse_examples(self):
        assert parse_polynomial("x1*x2 + x1*x4 + x2*x3 + x3*x4") == (
            (x(0, 4) + x(2, 4)) * (x(1, 4) + x(3, 4))
        )
        assert parse_polynomial("2*x1^2 - 3/2") == Polynomial(
            {((0, 2),): F(2), (): F(-3, 2)}, 1
        )

    def test_zero_denominator_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0")
        with pytest.raises(ParseError):
            parse_polynomial("x1 + 3/0*x2")

    def test_variable_index_cap(self):
        assert parse_polynomial(f"x1 + x{MAX_VARIABLES}").nvars == MAX_VARIABLES
        with pytest.raises(SizeCapExceeded):
            parse_polynomial(f"x{MAX_VARIABLES + 1}")
        with pytest.raises(SizeCapExceeded):
            parse_polynomial("2*x1*x100000000")

    @given(
        st.dictionaries(st.integers(0, 12), fractions().filter(lambda c: c != 0), min_size=1, max_size=6),
        fractions(),
        st.integers(0, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_form_text_matches_polynomial_text(self, coeffs, constant, extra):
        form = LinearForm.of(coeffs, constant)
        nvars = max(coeffs) + 1 + extra
        assert form.to_text() == form.to_polynomial(nvars).to_text()


class TestDivexact:
    def test_exact(self):
        a = (x(0, 2) + x(1, 2)) * (x(0, 2) * x(0, 2) + Polynomial.constant(3, 2))
        q = a.divexact(x(0, 2) + x(1, 2))
        assert q == x(0, 2) * x(0, 2) + Polynomial.constant(3, 2)

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            (x(0, 2) * x(1, 2) + Polynomial.constant(1, 2)).divexact(x(0, 2))

    @given(univariate(), univariate())
    @settings(max_examples=80, deadline=None)
    def test_uni_divmod_identity(self, a, b):
        b = uni_trim(b)
        if not b:
            with pytest.raises(ZeroDivisionError):
                uni_divmod(a, b)
            return
        quot, rem = uni_divmod(a, b)
        assert len(rem) < len(b)
        product = uni_mul(quot, b)
        padded = max(len(a), len(product), len(rem))
        total = [F(0)] * padded
        for coeffs, sign in ((product, 1), (rem, 1), (a, -1)):
            for k, c in enumerate(coeffs):
                total[k] += sign * c
        assert not uni_trim(total)
        if rem:
            with pytest.raises(ArithmeticError):
                uni_divexact(a, b)
        else:
            assert uni_divexact(a, b) == quot
