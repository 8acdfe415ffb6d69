import random
from fractions import Fraction

import pytest

from conftest import polynomial_bareiss, symbolic_laplacian
from stablespan.corpus import (
    FIXTURES,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected,
    random_constructed,
    star_graph,
)
from stablespan.errors import DisconnectedGraph
from stablespan.graphs import WeightedGraph, scale_vertex, star_polynomial
from stablespan.polynomials import LinearForm, Polynomial
from stablespan.spanning import (
    _bareiss_determinant,
    _divexact,
    _Packing,
    edge_span_poly,
    edge_variable_order,
    enumerate_spanning_trees,
    matrix_tree_check,
    spanning_tree_count,
    vertex_span_poly,
    weighted_kirchhoff_cofactor,
)

F = Fraction


def x(v, nvars):
    return Polynomial.variable(v, nvars)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_spanning_trees(cycle_graph([1, 1, 1]))) == 3
        assert sum(1 for _ in enumerate_spanning_trees(FIXTURES["c4_unit"])) == 4
        assert sum(1 for _ in enumerate_spanning_trees(complete_graph(4))) == 16

    def test_single_vertex(self):
        trees = list(enumerate_spanning_trees(WeightedGraph(1, {})))
        assert len(trees) == 1
        assert trees[0].edges == frozenset()

    def test_trees_are_unique_and_spanning(self):
        g = complete_graph(5)
        seen = set()
        for tree in enumerate_spanning_trees(g):
            assert tree.edges not in seen
            seen.add(tree.edges)
            assert len(tree.edges) == g.n - 1
            assert sum(tree.degrees) == 2 * (g.n - 1)
        assert len(seen) == 125

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            list(enumerate_spanning_trees(WeightedGraph(3, {(0, 1): F(1)})))

    def test_count_matches_kirchhoff(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_connected(rng, rng.randint(2, 8), signed=True)
            assert sum(1 for _ in enumerate_spanning_trees(g)) == spanning_tree_count(g)


class TestVertexPoly:
    def test_unit_c4(self):
        p = vertex_span_poly(FIXTURES["c4_unit"])
        assert p == (x(0, 4) + x(2, 4)) * (x(1, 4) + x(3, 4))

    def test_weighted_path(self):
        p = vertex_span_poly(path_graph([F(2, 3), F(5)]))
        assert p == x(1, 3).scale(F(10, 3))

    def test_triangle_formula(self):
        a, b, c = F(2), F(3), F(5, 2)  # w01, w02, w12
        g = WeightedGraph.from_edges(3, [(0, 1, a), (0, 2, b), (1, 2, c)])
        expected = x(0, 3).scale(a * b) + x(1, 3).scale(a * c) + x(2, 3).scale(b * c)
        assert vertex_span_poly(g) == expected

    def test_conventions(self):
        assert vertex_span_poly(WeightedGraph(1, {})) == Polynomial.constant(1)
        assert vertex_span_poly(WeightedGraph(2, {(0, 1): F(7, 2)})) == Polynomial.constant(F(7, 2))

    def test_star_squares_center(self):
        p = vertex_span_poly(star_graph(3))
        assert p == x(0, 4) * x(0, 4)

    def test_homogeneous_positive(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_constructed(rng, rng.randint(2, 8))
            p = vertex_span_poly(g)
            assert p.is_homogeneous(g.n - 2)
            assert all(c > 0 for c in p.terms.values())


class TestEdgePoly:
    def test_triangle(self):
        q = edge_span_poly(cycle_graph([1, 1, 1]))
        e = [Polynomial.variable(j, 3) for j in range(3)]
        assert q == e[0] * e[1] + e[0] * e[2] + e[1] * e[2]

    def test_tree_single_monomial(self):
        g = path_graph([2, 3, 4])
        q = edge_span_poly(g)
        assert len(q.terms) == 1
        assert q.total_degree() == 3

    def test_c4(self):
        q = edge_span_poly(FIXTURES["c4_unit"])
        assert len(q.terms) == 4
        assert all(sum(e for _, e in mono) == 3 for mono in q.terms)
        assert len(edge_variable_order(FIXTURES["c4_unit"])) == 4


class TestMatrixTree:
    def test_k2(self):
        g = WeightedGraph(2, {(0, 1): F(5, 3)})
        cof = weighted_kirchhoff_cofactor(g)
        assert cof == Polynomial.monomial(F(5, 3), {0: 1, 1: 1}, 2)
        assert matrix_tree_check(g)

    def test_unit_triangle_cofactor(self):
        g = cycle_graph([1, 1, 1])
        cof = weighted_kirchhoff_cofactor(g)
        xs = Polynomial.monomial(F(1), {0: 1, 1: 1, 2: 1}, 3)
        assert cof == xs * (x(0, 3) + x(1, 3) + x(2, 3))

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_connected(rng, rng.randint(2, 7), signed=rng.random() < 0.5)
            assert matrix_tree_check(g)

    def test_fixtures(self):
        for g in FIXTURES.values():
            assert matrix_tree_check(g)


class TestStructuralIdentities:
    def test_gluing_bowtie(self):
        g = bowtie_graph()
        left = vertex_span_poly(g)
        t1 = vertex_span_poly(cycle_graph([1, 1, 1]))
        # right triangle occupies vertices 2,3,4; the shared vertex is 2
        right = Polynomial(
            {tuple(sorted((v + 2, e) for v, e in mono)): c for mono, c in t1.terms.items()}, 5
        )
        lifted_left = Polynomial(t1.terms, 5)
        assert left == lifted_left * right * x(2, 5)

    def test_copy_identity_example(self):
        # copying vertex 1 of K2 (weight w) with bridge p gives the triangle
        w, p = F(3), F(5, 2)
        g = WeightedGraph(2, {(0, 1): w})
        g1 = WeightedGraph(3, {(0, 1): w, (0, 2): w, (1, 2): p})
        base = Polynomial(vertex_span_poly(g).terms, 3)
        shifted = base.substitute_linear(1, LinearForm.of({1: 1, 2: 1}))
        star = Polynomial(star_polynomial(g, 1).terms, 3) + LinearForm.of({1: p, 2: p}).to_polynomial(3)
        assert vertex_span_poly(g1) == shifted * star

    def test_scaling_derived_form(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_constructed(rng, rng.randint(2, 7))
            v = rng.randrange(g.n)
            c = F(rng.randint(1, 7), rng.randint(1, 4))
            scaled = scale_vertex(g, v, c)
            derived = vertex_span_poly(g).substitute_linear(v, LinearForm.of({v: c})).scale(c)
            assert vertex_span_poly(scaled) == derived


class TestIntegerBareiss:
    """The packed-integer determinant against Bareiss in the Polynomial ring."""

    def test_fixtures(self):
        for g in FIXTURES.values():
            if g.n >= 2:
                assert weighted_kirchhoff_cofactor(g) == polynomial_bareiss(symbolic_laplacian(g)), g

    def test_seeded_signed_rational_graphs(self):
        rng = random.Random(41)
        with_fractions = 0
        for i in range(40):
            n = rng.randint(2, 7)
            g = random_connected(rng, n, extra_edge_prob=0.15 if n == 7 else 0.4, signed=i % 2 == 0)
            with_fractions += any(w.denominator > 1 for w in g.edges.values())
            assert weighted_kirchhoff_cofactor(g) == polynomial_bareiss(symbolic_laplacian(g)), g
        assert with_fractions >= 20

    @staticmethod
    def random_matrix(rng, size, nvars, zero_prob):
        def entry():
            terms = {}
            if rng.random() >= zero_prob:
                for _ in range(rng.randint(1, 3)):
                    mono = tuple((v, rng.randint(1, 2)) for v in range(nvars) if rng.random() < 0.5)
                    terms[mono] = F(rng.randint(-5, 5), rng.randint(1, 4))
            return Polynomial(terms, nvars)

        return [[entry() for _ in range(size)] for _ in range(size)]

    def test_random_polynomial_matrices(self):
        rng = random.Random(43)
        for _ in range(150):
            m = self.random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3), zero_prob=0.4)
            assert _bareiss_determinant(m) == polynomial_bareiss(m), m

    def test_row_swap(self):
        # a[0][0] = 0 forces the swap; the result is -x1 * (x2*x3 - 1/2).
        x1, x2, x3 = (x(v, 3) for v in range(3))
        one, zero = Polynomial.constant(1, 3), Polynomial.zero(3)
        m = [[zero, x1, one], [x2, zero, one.scale(F(1, 2))], [one, zero, x3]]
        expected = polynomial_bareiss(m)
        assert expected == -(x1 * (x2 * x3 - one.scale(F(1, 2))))
        assert _bareiss_determinant(m) == expected
        swapped = [m[1], m[0], m[2]]
        assert _bareiss_determinant(swapped) == -expected

    def test_zero_determinants(self):
        x1, x2 = x(0, 2), x(1, 2)
        zero = Polynomial.zero(2)
        # No pivot in the first column: the early exit.
        assert _bareiss_determinant([[zero, x1, x2], [zero, x2, x1], [zero, x1, x1]]).is_zero()
        # Proportional rows: zero only after elimination.
        half = x1.scale(F(1, 2))
        m = [[x1, x2, x1 + x2], [half, x2.scale(F(1, 2)), (x1 + x2).scale(F(1, 2))], [x2, x1, half]]
        assert polynomial_bareiss(m).is_zero()
        assert _bareiss_determinant(m).is_zero()

    def test_divexact_divisibility_uses_guard_bits(self):
        packing = _Packing(3, 4)
        x0, x1, x2 = (packing.pack(((v, 1),)) for v in range(3))
        # x0 > x1 as integers, but x1 does not divide x0: the x1 field borrows.
        assert x0 > x1
        with pytest.raises(ArithmeticError):
            _divexact({x0: 1}, {x1: 1}, packing.guard)
        with pytest.raises(ArithmeticError):
            _divexact({x0 + x1: 1, x2: 1}, {x2: 1}, packing.guard)
        with pytest.raises(ArithmeticError):
            _divexact({x0: 3}, {x0: 2}, packing.guard)
        # (x0^2 + x1*x2) * (x0 - 2*x2) / (x0 - 2*x2)
        a = {2 * x0: 1, x1 + x2: 1}
        b = {x0: 1, x2: -2}
        product = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                product[ma + mb] = product.get(ma + mb, 0) + ca * cb
        assert _divexact(product, b, packing.guard) == a

    def test_packing_round_trip(self):
        packing = _Packing(4, 6)
        mono = ((0, 6), (2, 1), (3, 5))
        assert packing.unpack(packing.pack(mono)) == mono
        assert packing.pack(((0, 1),)) > packing.pack(((1, 6), (2, 6), (3, 6)))
