"""Exact sparse multivariate polynomial arithmetic over the rationals.

Everything in here is exact: coefficients are `fractions.Fraction`, complex
evaluation uses Gaussian rationals (pairs of Fractions), and real-rootedness
of univariate polynomials is decided by Sturm sequences rather than numeric
root finding.  No floating point enters any code path.

A monomial is stored sparsely as a sorted tuple of (variable, exponent)
pairs with all exponents positive; the empty tuple is the constant monomial.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SizeCapExceeded, VariableMismatch

Monomial = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_dense(mono: Monomial, nvars: int) -> tuple[int, ...]:
    dense = [0] * nvars
    for v, e in mono:
        dense[v] = e
    return tuple(dense)


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Membership in the open upper half-plane (im > 0) is what stability
    certificates are about, so the arithmetic here must be exact.
    """

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scale(self, c: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * c, self.im * c)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def in_upper_half_plane(self) -> bool:
        return self.im > 0

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})i"


GAUSSIAN_ZERO = GaussianRational()


@dataclass(frozen=True)
class LinearForm:
    """a_1*x_{v1} + ... + a_k*x_{vk} + constant, with at least one nonzero a_i."""

    coefficients: tuple[tuple[int, Fraction], ...]
    constant: Fraction = _ZERO

    @staticmethod
    def of(coefficients: dict[int, Fraction | int | str], constant: Fraction | int | str = 0) -> "LinearForm":
        converted = ((v, Fraction(c)) for v, c in coefficients.items())
        coeffs = tuple(sorted((v, c) for v, c in converted if c != 0))
        if not coeffs:
            raise ValueError("a linear form needs at least one nonzero coefficient")
        return LinearForm(coeffs, Fraction(constant))

    def coefficient(self, var: int) -> Fraction:
        for v, c in self.coefficients:
            if v == var:
                return c
        return _ZERO

    def to_text(self) -> str:
        """The text of `to_polynomial().to_text()`, from the coefficients,
        which are already in its order: variables ascending, then the
        constant."""
        terms = [(c, [f"x{v + 1}"]) for v, c in self.coefficients]
        if self.constant != 0:
            terms.append((self.constant, []))
        return _terms_text(terms)

    def to_polynomial(self, nvars: int | None = None) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for v, c in self.coefficients:
            terms[((v, 1),)] = c
        if self.constant != 0:
            terms[()] = self.constant
        width = max(v for v, _ in self.coefficients) + 1
        return Polynomial(terms, max(width, nvars or 0))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    `terms` maps monomials to nonzero Fractions; `nvars` is the ambient
    variable count (variables are indices 0..nvars-1).  Values are immutable
    after construction.  Equality is term-wise and ignores nvars, so the same
    polynomial viewed in differently sized ambient rings compares equal.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: dict[Monomial, Fraction], nvars: int = 0):
        cleaned = {m: c for m, c in terms.items() if c != 0}
        used = max((m[-1][0] + 1 for m in cleaned if m), default=0)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "nvars", max(nvars, used))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int = 0) -> "Polynomial":
        return Polynomial({}, nvars)

    @staticmethod
    def constant(c: Fraction | int | str, nvars: int = 0) -> "Polynomial":
        c = Fraction(c)
        return Polynomial({(): c} if c != 0 else {}, nvars)

    @staticmethod
    def variable(v: int, nvars: int | None = None) -> "Polynomial":
        return Polynomial({((v, 1),): _ONE}, nvars if nvars is not None else v + 1)

    @staticmethod
    def monomial(c: Fraction, exps: dict[int, int], nvars: int = 0) -> "Polynomial":
        mono = tuple(sorted((v, e) for v, e in exps.items() if e > 0))
        return Polynomial({mono: Fraction(c)}, nvars)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, _ZERO) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Polynomial(terms, max(self.nvars, other.nvars))

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = terms.get(m, _ZERO) + c1 * c2
                if s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Polynomial(terms, max(self.nvars, other.nvars))

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial({m: k * c for m, k in self.terms.items()}, self.nvars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # -- structure ---------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(e for _, e in m) for m in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficients_in(self, var: int) -> dict[int, "Polynomial"]:
        """View as univariate in `var`: exponent -> coefficient polynomial."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, k in m:
                if v == var:
                    e = k
                else:
                    rest.append((v, k))
            parts.setdefault(e, {})[tuple(rest)] = c
        return {e: Polynomial(t, self.nvars) for e, t in parts.items()}

    # -- substitution and evaluation --------------------------------------

    def substitute_linear(self, var: int, form: LinearForm) -> "Polynomial":
        """Exactly replace x_var by a linear form in the other variables."""
        if var >= self.nvars:
            raise ValueError(f"variable {var} out of range for nvars={self.nvars}")
        form_poly = form.to_polynomial(self.nvars)
        result = Polynomial.zero(self.nvars)
        powers: dict[int, Polynomial] = {0: Polynomial.constant(1, self.nvars)}
        for e, part in sorted(self.coefficients_in(var).items()):
            while e not in powers:
                k = max(powers)
                powers[k + 1] = powers[k] * form_poly
            result = result + part * powers[e]
        return result

    def substitute_value(self, var: int, value: Fraction | int) -> "Polynomial":
        """Exactly replace x_var by a rational constant."""
        value = Fraction(value)
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for v, k in m:
                if v == var:
                    e = k
                else:
                    rest.append((v, k))
            coeff = c * value**e
            if coeff == 0:
                continue
            mono = tuple(rest)
            s = terms.get(mono, _ZERO) + coeff
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(terms, self.nvars)

    def restrict_univariate(self, assignment: dict[int, Fraction], free: int) -> list[Fraction]:
        """Fix all variables except `free` at rational values.

        The assignment must cover exactly the variables 0..nvars-1 other than
        `free`.  Returns dense univariate coefficients (index = exponent).
        """
        expected = set(range(self.nvars)) - {free}
        if set(assignment) != expected:
            raise VariableMismatch(
                f"assignment must cover exactly the {len(expected)} variables other than x{free + 1}"
            )
        coeffs: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            e_free = 0
            val = c
            for v, e in m:
                if v == free:
                    e_free = e
                else:
                    val *= Fraction(assignment[v]) ** e
            if val != 0:
                coeffs[e_free] = coeffs.get(e_free, _ZERO) + val
        out = [_ZERO] * (max(coeffs, default=-1) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return uni_trim(out)

    def eval_rational(self, point: list[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise VariableMismatch(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = _ZERO
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def eval_complex(self, point: list[GaussianRational]) -> GaussianRational:
        """Exact evaluation at a vector of Gaussian rationals."""
        if len(point) != self.nvars:
            raise VariableMismatch(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = GAUSSIAN_ZERO
        for m, c in self.terms.items():
            val = GaussianRational(c, _ZERO)
            for v, e in m:
                for _ in range(e):
                    val = val * point[v]
            total = total + val
        return total

    def restrict_gaussian(self, assignment: dict[int, GaussianRational], free: int) -> list[GaussianRational]:
        """Like restrict_univariate but with exact complex substitution values."""
        expected = set(range(self.nvars)) - {free}
        if set(assignment) != expected:
            raise VariableMismatch("assignment must cover exactly the variables other than the free one")
        coeffs: dict[int, GaussianRational] = {}
        for m, c in self.terms.items():
            e_free = 0
            val = GaussianRational(c, _ZERO)
            for v, e in m:
                if v == free:
                    e_free = e
                else:
                    for _ in range(e):
                        val = val * assignment[v]
            acc = coeffs.get(e_free, GAUSSIAN_ZERO) + val
            coeffs[e_free] = acc
        out = [GAUSSIAN_ZERO] * (max(coeffs, default=-1) + 1)
        for e, c in coeffs.items():
            out[e] = c
        while out and out[-1].is_zero():
            out.pop()
        return out

    # -- exact division (for fraction-free elimination) --------------------

    def leading(self, nvars: int) -> tuple[tuple[int, ...], Monomial, Fraction]:
        dense, mono = max((_mono_dense(m, nvars), m) for m in self.terms)
        return dense, mono, self.terms[mono]

    def divexact(self, other: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises ArithmeticError if not divisible.

        Uses leading-term elimination in lexicographic order, which
        terminates and succeeds exactly when `other` divides `self`.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        nvars = max(self.nvars, other.nvars)
        _, lm, lc = other.leading(nvars)
        lm_dense = _mono_dense(lm, nvars)
        quotient: dict[Monomial, Fraction] = {}
        rem = self
        while not rem.is_zero():
            dense, mono, coeff = rem.leading(nvars)
            diff = [a - b for a, b in zip(dense, lm_dense)]
            if any(d < 0 for d in diff):
                raise ArithmeticError("inexact polynomial division")
            qm = tuple((v, e) for v, e in enumerate(diff) if e > 0)
            qc = coeff / lc
            quotient[qm] = qc
            rem = rem - Polynomial({qm: qc}, nvars) * other
        return Polynomial(quotient, nvars)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Render like "3/2*x1^2*x3 + x2 - 1" with monomials sorted lexicographically."""
        items = sorted(self.terms.items(), key=lambda kv: _mono_dense(kv[0], self.nvars), reverse=True)
        return _terms_text(
            [(coeff, [f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in mono]) for mono, coeff in items]
        )


def _terms_text(terms: list[tuple[Fraction, list[str]]]) -> str:
    """Join nonzero (coefficient, variable factors) terms, in the given
    order, as "3/2*x1^2*x3 + x2 - 1"; no terms is "0"."""
    if not terms:
        return "0"
    parts: list[str] = []
    for coeff, factors in terms:
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(parts)


# Largest exponent of one variable in a parsed polynomial.  The falsifier
# restricts a polynomial to a dense univariate coefficient list and runs Sturm
# chains on it, so the degree sets both memory and time; a spanning
# polynomial of an n-vertex graph has degree at most n - 2 in each variable.
MAX_EXPONENT = 64

# Largest variable index in a parsed polynomial, x1 to x1000.  The falsifier
# draws a value for every variable up to the largest index in each trial, so
# its time grows linearly with the index: `falsify --poly "x1 + xN"` runs all
# 1000 default trials in about 3 s at N = 1000 and 30 s at N = 10^4.
MAX_VARIABLES = 1000

_TERM_RE = re.compile(r"^(?P<coef>[0-9]+(?:/[0-9]+)?)?(?P<vars>(?:\*?x[0-9]+(?:\^[0-9]+)?)*)$")
_VAR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def parse_polynomial(text: str, nvars: int | None = None) -> Polynomial:
    """Parse the text form produced by Polynomial.to_text."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseError("empty polynomial expression")
    # Split into signed terms at top level.
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    for i, ch in enumerate(stripped):
        if ch in "+-" and i > 0 and stripped[i - 1] not in "+-*^/":
            chunks.append((sign, "".join(buf)))
            sign, buf = (1 if ch == "+" else -1), []
        elif ch in "+-" and i == 0:
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
    chunks.append((sign, "".join(buf)))

    result = Polynomial.zero(nvars or 0)
    for sgn, chunk in chunks:
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"cannot parse term {chunk!r}")
        try:
            coeff = Fraction(m.group("coef")) if m.group("coef") else _ONE
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in term {chunk!r}") from exc
        exps: dict[int, int] = {}
        for vm in _VAR_RE.finditer(m.group("vars") or ""):
            try:
                idx, e = int(vm.group(1)) - 1, int(vm.group(2) or 1)
            except ValueError as exc:
                raise ParseError("number too long in polynomial expression") from exc
            if idx < 0:
                raise ParseError("variables are numbered from x1")
            if idx >= MAX_VARIABLES:
                raise SizeCapExceeded(f"variable x{idx + 1} is above the cap of x{MAX_VARIABLES}")
            exps[idx] = exps.get(idx, 0) + e
            if exps[idx] > MAX_EXPONENT:
                raise SizeCapExceeded(f"exponent of x{idx + 1} is above the cap of {MAX_EXPONENT}")
        result = result + Polynomial.monomial(coeff * sgn, exps)
    if nvars is not None:
        if result.nvars > nvars:
            raise ParseError(f"expression uses more than {nvars} variables")
        result = Polynomial(result.terms, nvars)
    return result


# -- univariate polynomials over Q (dense coefficient lists) ---------------


def uni_trim(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def uni_degree(coeffs: list[Fraction]) -> int:
    return len(coeffs) - 1


def uni_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(coeffs)][1:]


def uni_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return uni_trim(out)


def uni_primitive(coeffs: list[Fraction]) -> list[Fraction]:
    """Divide by the positive content (gcd of numerators / lcm of denominators).

    Sign is preserved, which is what Sturm sign-variation counting needs.
    """
    coeffs = uni_trim(coeffs)
    if not coeffs:
        return []
    num = 0
    den = 1
    for c in coeffs:
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    content = Fraction(num, den)
    return [c / content for c in coeffs]


def uni_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomial division over Q."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [_ZERO] * max(len(a) - len(b) + 1, 0)
    while len(rem) - 1 >= db and rem:
        q = rem[-1] / lead
        shift = len(rem) - 1 - db
        quot[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem = uni_trim(rem)
    return uni_trim(quot), rem


def uni_divexact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    quot, rem = uni_divmod(a, b)
    if rem:
        raise ArithmeticError("inexact univariate division")
    return quot


def uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Primitive gcd with positive leading coefficient."""
    a, b = uni_primitive(a), uni_primitive(b)
    while b:
        a, b = b, uni_primitive(uni_divmod(a, b)[1])
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def square_free_part(coeffs: list[Fraction]) -> list[Fraction]:
    coeffs = uni_trim(coeffs)
    if len(coeffs) <= 1:
        return coeffs
    g = uni_gcd(coeffs, uni_derivative(coeffs))
    if len(g) == 1:
        return coeffs
    return uni_divexact(coeffs, g)


def sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Sturm sequence of a square-free polynomial, content-normalized per step."""
    chain = [uni_primitive(coeffs), uni_primitive(uni_derivative(coeffs))]
    while chain[-1]:
        nxt = uni_primitive([-c for c in uni_divmod(chain[-2], chain[-1])[1]])
        chain.append(nxt)
    chain.pop()
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for i in range(len(nz) - 1) if nz[i] != nz[i + 1])


def count_distinct_real_roots(coeffs: list[Fraction]) -> int:
    """Number of distinct real roots, via Sturm's theorem on (-inf, +inf)."""
    sq = square_free_part(coeffs)
    if len(sq) <= 1:
        return 0
    chain = sturm_chain(sq)
    at_neg = [(1 if c[-1] > 0 else -1) * (-1) ** (len(c) - 1) for c in chain if c]
    at_pos = [1 if c[-1] > 0 else -1 for c in chain if c]
    return _variations(at_neg) - _variations(at_pos)


def is_real_rooted(coeffs: list[Fraction]) -> bool:
    """True iff every complex root is real (multiplicities ignored).

    The zero polynomial and nonzero constants vacuously count as real-rooted.
    Decision: the square-free part of p has deg(p_sqfree) distinct real roots,
    counted exactly by Sturm sign variations at minus/plus infinity.
    """
    coeffs = uni_trim(coeffs)
    if len(coeffs) <= 1:
        return True
    sq = square_free_part(coeffs)
    return count_distinct_real_roots(sq) == uni_degree(sq)
