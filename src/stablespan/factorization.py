"""Linear factorization of the spanning polynomial for accepted graphs.

Replaying a reduction trace in construction order turns the copy, gluing,
and scaling identities into an incremental factorization: every vertex added
after the second contributes exactly one linear factor, substitutions keep
earlier factors linear, scalings rescale one variable and the constant, and
sign flips only touch the constant.  The result multiplies out, term by
term, to the brute-force polynomial.  Each substitution touches only the
factors that hold its variable, so building the factorization costs time
linear in its size: O(n) for a tree, O(n^2) for a complete graph.
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

    Factors are kept as coefficient dicts with an index from each variable
    to the factors that contain it, so a substitution rewrites only those
    factors: x_removed is new, so it just takes x_kept's coefficient.  Each
    `LinearForm` is built once, at the end.  The cost is linear in the size
    of the result, not in the number of factors times the number of steps.
    """
    constant = Fraction(1)
    factors: list[dict[int, Fraction]] = []
    holders: dict[int, list[int]] = {}

    def append(coeffs: dict[int, Fraction]) -> None:
        for v in coeffs:
            holders.setdefault(v, []).append(len(factors))
        factors.append(coeffs)

    for step, adj in construction_walk(trace):
        if isinstance(step, RemovePendant):
            constant *= step.weight
            if len(adj) >= 2:
                append({step.attach: Fraction(1)})
        elif isinstance(step, RemoveTwin):
            if len(adj) == 1:
                constant *= step.bridge
                continue
            kept, removed = step.kept, step.removed
            held = holders.get(kept, [])
            for i in held:
                factors[i][removed] = factors[i][kept]
            holders[removed] = list(held)
            coeffs = dict(adj[kept])
            if step.bridge != 0:
                coeffs[kept] = coeffs[removed] = step.bridge
            append(coeffs)
        elif isinstance(step, ScaleVertex):
            constant /= step.c
            inv = 1 / step.c
            for i in holders.get(step.v, []):
                factors[i][step.v] *= inv
        elif isinstance(step, SignFlipBlock):
            if (len(step.block) - 1) % 2 == 1:
                constant = -constant
    return LinearFactorization(constant, tuple(LinearForm(tuple(sorted(f.items()))) for f in factors))


def verify_factorization(g: WeightedGraph, f: LinearFactorization) -> bool:
    """Exact term-by-term comparison against the brute-force polynomial."""
    return f.expand(g.n) == vertex_span_poly(g)
