"""Spanning-tree polynomials by exhaustive enumeration, with a determinant oracle.

The vertex polynomial of a connected weighted graph sums, over all spanning
trees T, the tree's weight product times prod_v x_v^(deg_T(v)-1).  The edge
polynomial sums the products of edge variables instead.  Enumeration is by
recursive edge inclusion/exclusion with connectivity pruning: simple, exact,
and comfortably fast at desk scale (n around 10).  An independent weighted
Kirchhoff cofactor cross-checks the enumeration.  It is computed by
fraction-free (Bareiss) elimination over Z[x]: the weights are scaled by the
lcm D of their denominators and the result divided by D^(n-1), coefficients
are Python ints, and each monomial is one int with a field per variable.
The cofactor still has exponentially many terms in n, which is why its
callers cap n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DisconnectedGraph, InvalidGraph
from .graphs import WeightedGraph
from .polynomials import Monomial, Polynomial


@dataclass(frozen=True)
class SpanningTree:
    """Edge set of one spanning tree plus the per-vertex degrees."""

    edges: frozenset[tuple[int, int]]
    degrees: tuple[int, ...]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def copy(self) -> "_UnionFind":
        uf = _UnionFind(0)
        uf.parent = list(self.parent)
        return uf


def enumerate_spanning_trees(g: WeightedGraph) -> Iterator[SpanningTree]:
    """Yield every spanning tree exactly once (one empty tree for n=1).

    Each tree corresponds to a unique include/exclude decision sequence over
    the sorted edge list; branches that cannot complete a tree are pruned by
    a union-find connectivity test over the not-yet-decided edges.
    """
    if not g.is_connected():
        raise DisconnectedGraph("spanning trees exist only for connected graphs")
    if g.n == 1:
        yield SpanningTree(frozenset(), (0,))
        return
    edges = sorted(g.edges)

    def feasible(uf: _UnionFind, idx: int) -> bool:
        probe = uf.copy()
        parts = len({probe.find(v) for v in range(g.n)})
        for u, v in edges[idx:]:
            if probe.union(u, v):
                parts -= 1
                if parts == 1:
                    return True
        return parts == 1

    def recurse(idx: int, chosen: list[tuple[int, int]], uf: _UnionFind) -> Iterator[SpanningTree]:
        if len(chosen) == g.n - 1:
            degrees = [0] * g.n
            for u, v in chosen:
                degrees[u] += 1
                degrees[v] += 1
            yield SpanningTree(frozenset(chosen), tuple(degrees))
            return
        if idx == len(edges):
            return
        u, v = edges[idx]
        if uf.find(u) != uf.find(v):
            inc = uf.copy()
            inc.union(u, v)
            chosen.append((u, v))
            yield from recurse(idx + 1, chosen, inc)
            chosen.pop()
        if feasible(uf, idx + 1):
            yield from recurse(idx + 1, chosen, uf)

    yield from recurse(0, [], _UnionFind(g.n))


def vertex_span_poly(g: WeightedGraph) -> Polynomial:
    """Weighted spanning polynomial in the vertex variables x_0..x_{n-1}.

    Conventions: the 1-vertex graph gives the constant 1 (empty product over
    its single empty tree); a single edge gives the constant w(e).
    """
    if g.n == 1:
        return Polynomial.constant(1, 1)
    terms: dict = {}
    for tree in enumerate_spanning_trees(g):
        coeff = Fraction(1)
        for e in tree.edges:
            coeff *= g.edges[e]
        mono = tuple((v, d - 1) for v, d in enumerate(tree.degrees) if d > 1)
        acc = terms.get(mono, Fraction(0)) + coeff
        if acc == 0:
            terms.pop(mono, None)
        else:
            terms[mono] = acc
    return Polynomial(terms, g.n)


def edge_variable_order(g: WeightedGraph) -> list[tuple[int, int]]:
    """Edge variable j corresponds to the j-th edge in this sorted order."""
    return sorted(g.edges)


def edge_span_poly(g: WeightedGraph) -> Polynomial:
    """Spanning polynomial in one variable per edge (weights ignored)."""
    if g.n == 1:
        return Polynomial.constant(1, 0)
    index = {e: j for j, e in enumerate(edge_variable_order(g))}
    terms: dict = {}
    for tree in enumerate_spanning_trees(g):
        mono = tuple(sorted((index[e], 1) for e in tree.edges))
        terms[mono] = terms.get(mono, Fraction(0)) + 1
    return Polynomial(terms, len(index))


def spanning_tree_count(g: WeightedGraph) -> int:
    """Number of spanning trees by the integer Kirchhoff determinant."""
    if not g.is_connected():
        raise DisconnectedGraph("tree count requires a connected graph")
    if g.n == 1:
        return 1
    m = [[Fraction(0)] * (g.n - 1) for _ in range(g.n - 1)]
    for (u, v), _ in g.edges.items():
        if u < g.n - 1 and v < g.n - 1:
            m[u][v] -= 1
            m[v][u] -= 1
        if u < g.n - 1:
            m[u][u] += 1
        if v < g.n - 1:
            m[v][v] += 1
    det = Fraction(1)
    size = g.n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


class _Packing:
    """Monomials in `nvars` variables, each exponent at most `top`, packed
    into one int: x_0 in the most significant field and a guard bit above
    each field.  A product of monomials is an integer sum, lexicographic
    order is integer order, and m divides m' exactly when m' - m sets no
    guard bit (a field that would go negative borrows from its guard)."""

    def __init__(self, nvars: int, top: int):
        width = top.bit_length() + 1
        self.shifts = [(nvars - 1 - v) * width for v in range(nvars)]
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.field = (1 << (width - 1)) - 1

    def pack(self, m: Monomial) -> int:
        return sum(e << self.shifts[v] for v, e in m)

    def unpack(self, key: int) -> Monomial:
        exps = ((v, key >> s & self.field) for v, s in enumerate(self.shifts))
        return tuple((v, e) for v, e in exps if e)


def _bareiss_determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free determinant over Z[x] on packed monomials, returned
    over Q.

    Every coefficient is scaled by D, the lcm of the coefficient
    denominators, so the determinant scales by exactly D^size and every entry
    and every Bareiss division stays in Z[x] (the intermediate entries are
    minors of the row-permuted input).  An exponent in a minor is at most the
    sum over the rows of each row's largest exponent, so twice that sum
    bounds the fields for the product of two minors.
    """
    size = len(matrix)
    if size == 0:
        return Polynomial.constant(1)
    nvars = max(p.nvars for row in matrix for p in row)
    scale = math.lcm(*(c.denominator for row in matrix for p in row for c in p.terms.values()))
    row_tops = (max((e for p in row for m in p.terms for _, e in m), default=0) for row in matrix)
    packing = _Packing(nvars, 2 * sum(row_tops))
    a = [
        [{packing.pack(m): c.numerator * (scale // c.denominator) for m, c in p.terms.items()} for p in row]
        for row in matrix
    ]
    sign = 1
    prev: dict[int, int] = {0: 1}
    for k in range(size - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return Polynomial.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, size):
                row[j] = _divexact(_mul_sub(pivot, row[j], lead, a[k][j]), prev, packing.guard)
            row[k] = {}
        prev = pivot
    denominator = scale**size
    det = a[size - 1][size - 1]
    return Polynomial({packing.unpack(m): Fraction(sign * c, denominator) for m, c in det.items()}, nvars)


def _mul_sub(a: dict[int, int], b: dict[int, int], c: dict[int, int], d: dict[int, int]) -> dict[int, int]:
    """a*b - c*d on packed integer polynomials."""
    out: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb
    for mc, cc in c.items():
        for md, cd in d.items():
            m = mc + md
            out[m] = out.get(m, 0) - cc * cd
    return {m: x for m, x in out.items() if x}


def _divexact(rem: dict[int, int], den: dict[int, int], guard: int) -> dict[int, int]:
    """Exact quotient rem / den over Z[x], consuming `rem`; leading terms
    come off in lexicographic order.  Raises ArithmeticError when den does
    not divide rem."""
    if den == {0: 1}:
        return rem
    lead = max(den)
    lc = den[lead]
    tail = [(m - lead, c) for m, c in den.items() if m != lead]
    quotient: dict[int, int] = {}
    while rem:
        m = max(rem)
        q, r = divmod(rem.pop(m), lc)
        qm = m - lead
        if r or qm & guard:
            raise ArithmeticError("inexact polynomial division")
        quotient[qm] = q
        for dm, dc in tail:
            key = m + dm
            x = rem.get(key, 0) - q * dc
            if x:
                rem[key] = x
            else:
                rem.pop(key, None)
    return quotient


def weighted_kirchhoff_cofactor(g: WeightedGraph) -> Polynomial:
    """Cofactor of the symbolic Laplacian with entries -w(uv)*x_u*x_v.

    Deleting the last row and column and taking the determinant yields, by
    the weighted matrix-tree theorem, sum over spanning trees of the tree
    weight times prod_v x_v^(deg_T(v)).
    """
    if g.n < 2:
        raise InvalidGraph("the cofactor identity needs at least two vertices")
    size = g.n - 1
    lap = [[Polynomial.zero(g.n) for _ in range(size)] for _ in range(size)]
    for (u, v), w in g.edges.items():
        xuxv = Polynomial.monomial(w, {u: 1, v: 1}, g.n)
        if u < size and v < size:
            lap[u][v] = lap[u][v] - xuxv
            lap[v][u] = lap[v][u] - xuxv
        if u < size:
            lap[u][u] = lap[u][u] + xuxv
        if v < size:
            lap[v][v] = lap[v][v] + xuxv
    return _bareiss_determinant(lap)


def matrix_tree_check(g: WeightedGraph) -> bool:
    """Does the symbolic cofactor equal vertex_span_poly(g) * prod_v x_v?

    This is the independent oracle for the enumeration path; a False return
    means one of the two computations is wrong.
    """
    if not g.is_connected():
        raise DisconnectedGraph("matrix-tree check requires a connected graph")
    cofactor = weighted_kirchhoff_cofactor(g)
    all_vertices = Polynomial.monomial(Fraction(1), {v: 1 for v in range(g.n)}, g.n)
    return cofactor == vertex_span_poly(g) * all_vertices
