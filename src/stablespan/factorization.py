"""Linear factorization of the spanning polynomial for accepted graphs.

Replaying a reduction trace in construction order turns the copy, gluing,
and scaling identities into an incremental factorization: every vertex added
after the second contributes exactly one linear factor, substitutions keep
earlier factors linear, and scalings/sign flips only touch the constant.
The result multiplies out, term by term, to the brute-force polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import WeightedGraph
from .polynomials import LinearForm, Polynomial
from .recognition import (
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    ScaleVertex,
    SignFlipBlock,
    construction_walk,
)
from .spanning import vertex_span_poly


@dataclass(frozen=True)
class LinearFactorization:
    """constant * prod(factors), each factor a linear form in vertex variables.

    For positive-weight graphs the constant is positive and every factor
    coefficient is nonnegative; sign-flipped blocks in the trace multiply
    the constant by (-1)^(block size - 1).
    """

    constant: Fraction
    factors: tuple[LinearForm, ...]

    def expand(self, nvars: int) -> Polynomial:
        product = Polynomial.constant(self.constant, nvars)
        for f in self.factors:
            product = product * f.to_polynomial(nvars)
        return product


def factor_from_trace(trace: ReductionTrace) -> LinearFactorization:
    """Build the factorization along the construction (reverse-trace) order.

    Update rules, with P the polynomial built so far:
      * first added vertex (graph grows 1 -> 2): P stays constant, times the
        pendant weight or the bridge weight;
      * pendant attach u -> v, weight a: P *= a * x_v;
      * twin copy kept -> removed with bridge p: substitute
        x_kept -> x_kept + x_removed everywhere, then append the factor
        sum_t w(t,kept)*x_t + p*(x_kept + x_removed) over prior neighbors t;
      * scaling-by-c step reversed: constant /= c and x_v -> x_v/c;
      * sign flip of block B: constant *= (-1)^(|B|-1).
    """
    constant = Fraction(1)
    factors: list[LinearForm] = []
    for step, adj in construction_walk(trace):
        if isinstance(step, RemovePendant):
            constant *= step.weight
            if len(adj) >= 2:
                factors.append(LinearForm.of({step.attach: Fraction(1)}))
        elif isinstance(step, RemoveTwin):
            if len(adj) == 1:
                constant *= step.bridge
                continue
            pair_form = LinearForm.of({step.kept: Fraction(1), step.removed: Fraction(1)})
            factors = [f.substitute(step.kept, pair_form) for f in factors]
            coeffs = dict(adj[step.kept])
            if step.bridge != 0:
                coeffs[step.kept] = coeffs.get(step.kept, Fraction(0)) + step.bridge
                coeffs[step.removed] = coeffs.get(step.removed, Fraction(0)) + step.bridge
            factors.append(LinearForm.of(coeffs))
        elif isinstance(step, ScaleVertex):
            constant /= step.c
            inv_form = LinearForm.of({step.v: 1 / step.c})
            factors = [f.substitute(step.v, inv_form) for f in factors]
        elif isinstance(step, SignFlipBlock):
            if (len(step.block) - 1) % 2 == 1:
                constant = -constant
    return LinearFactorization(constant, tuple(factors))


def verify_factorization(g: WeightedGraph, f: LinearFactorization) -> bool:
    """Exact term-by-term comparison against the brute-force polynomial."""
    return f.expand(g.n) == vertex_span_poly(g)
