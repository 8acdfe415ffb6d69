import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import brute_tree_side, dense_cut_rank, fraction_rank
from stablespan.corpus import (
    FIXTURES,
    cycle_graph,
    house_graph,
    k4_one_heavy,
    random_connected,
    random_constructed,
    star_graph,
)
from stablespan.errors import InvalidSubset, LeafMismatch, SizeCapExceeded
from stablespan.graphs import WeightedGraph, find_contractible_pairs
from stablespan.rankwidth import (
    DecompositionTree,
    _rank,
    build_rank_decomposition,
    cut_rank,
    cut_ranks,
    enumerate_cubic_trees,
    exhaustive_min_rankwidth,
    tree_width,
)
from stablespan.recognition import recognize

F = Fraction


class TestCutRank:
    def test_singleton(self):
        g = FIXTURES["c4_unit"]
        for v in range(4):
            assert cut_rank(g, {v}) == 1

    def test_c4_adjacent_pair_has_rank_two(self):
        assert cut_rank(FIXTURES["c4_unit"], {0, 1}) == 2

    def test_c4_opposite_pair_has_rank_one(self):
        assert cut_rank(FIXTURES["c4_unit"], {0, 2}) == 1

    def test_k4_heavy_twin_side(self):
        assert cut_rank(k4_one_heavy(), {2, 3}) == 1

    def test_symmetry(self):
        rng = random.Random(15)
        for _ in range(50):
            g = random_connected(rng, rng.randint(3, 7), signed=rng.random() < 0.3)
            for size in range(1, g.n):
                for subset in combinations(range(g.n), size):
                    a = set(subset)
                    assert cut_rank(g, a) == cut_rank(g, set(range(g.n)) - a)
                    break  # one subset per size keeps this quick

    def test_contractible_pair_rows_proportional(self):
        rng = random.Random(16)
        for _ in range(60):
            g = random_constructed(rng, rng.randint(3, 8))
            for pair in find_contractible_pairs(g):
                if g.n - 2 >= 1:
                    assert cut_rank(g, {pair.u, pair.v}) <= 1

    def test_invalid_subsets(self):
        g = FIXTURES["c4_unit"]
        with pytest.raises(InvalidSubset):
            cut_rank(g, set())
        with pytest.raises(InvalidSubset):
            cut_rank(g, {0, 1, 2, 3})
        with pytest.raises(InvalidSubset):
            cut_rank(g, {7})


class TestBuildDecomposition:
    def test_unit_c4_pairs_opposite_cherries(self):
        g = FIXTURES["c4_unit"]
        tree = build_rank_decomposition(recognize(g).trace)
        tree.validate()
        cherries = self._cherries(tree)
        assert {frozenset({0, 2}), frozenset({1, 3})} == cherries
        assert tree_width(g, tree) == 1

    def test_k4_heavy_cherry(self):
        g = k4_one_heavy()
        tree = build_rank_decomposition(recognize(g).trace)
        assert frozenset({2, 3}) in self._cherries(tree)
        assert tree_width(g, tree) == 1

    def test_star_width_one(self):
        g = star_graph(3)
        tree = build_rank_decomposition(recognize(g).trace)
        assert tree_width(g, tree) == 1

    def test_all_accepted_fixtures_width_one(self):
        for name, g in FIXTURES.items():
            result = recognize(g)
            if not result.accepted:
                continue
            tree = build_rank_decomposition(result.trace)
            assert tree_width(g, tree) == 1, name

    def test_ranks_reported_per_edge(self):
        g = FIXTURES["c4_unit"]
        tree = build_rank_decomposition(recognize(g).trace)
        results = cut_ranks(g, tree)
        assert len(results) == len(tree.edges)
        assert all(r.rank == 1 for r in results)

    def test_non_trees_rejected(self):
        # Leaves 0-1 joined beside a K4 of internal nodes: degrees pass, but
        # 7 edges on 6 nodes.
        k4 = [(a, b) for a, b in combinations(range(2, 6), 2)]
        beside_k4 = DecompositionTree(leaves={0: 0, 1: 1}, edges=((0, 1), *k4))
        # Leaves 0-1 joined beside a triangle of internal nodes with a leaf
        # on each: degrees pass and 7 edges on 8 nodes, but two components.
        beside_triangle = DecompositionTree(
            leaves={v: v for v in range(5)},
            edges=((0, 1), (5, 6), (6, 7), (5, 7), (5, 2), (6, 3), (7, 4)),
        )
        for tree, g in ((beside_k4, WeightedGraph(2, {(0, 1): F(1)})), (beside_triangle, cycle_graph([1] * 5))):
            with pytest.raises(LeafMismatch):
                tree.validate()
            with pytest.raises(LeafMismatch):
                cut_ranks(g, tree)

    @staticmethod
    def _cherries(tree: DecompositionTree) -> set[frozenset[int]]:
        adj = tree.neighbors()
        out = set()
        for node in adj:
            if node not in tree.leaves:
                leaf_nbrs = [tree.leaves[u] for u in adj[node] if u in tree.leaves]
                if len(leaf_nbrs) == 2:
                    out.add(frozenset(leaf_nbrs))
        return out


class TestCutRanksMatchPerEdgeOracle:
    """One rooted pass and boundary-only ranks give, edge by edge, the side a
    search of the tree finds and the rank of the full dense block."""

    @staticmethod
    def assert_matches_oracle(g: WeightedGraph, tree: DecompositionTree) -> None:
        expected = []
        for edge in tree.edges:
            side = brute_tree_side(tree, edge)
            expected.append((edge, side, dense_cut_rank(g, side)))
        assert [(r.edge, r.side, r.rank) for r in cut_ranks(g, tree)] == expected

    def test_accepted_fixture_decompositions(self):
        for g in FIXTURES.values():
            result = recognize(g)
            if result.accepted:
                self.assert_matches_oracle(g, build_rank_decomposition(result.trace))

    def test_every_cubic_tree_on_six_vertices(self):
        rng = random.Random(41)
        graphs = [random_connected(rng, 6, signed=True), random_constructed(rng, 6), cycle_graph([1, 2, 3, 1, 2, 3])]
        for g in graphs:
            for tree in enumerate_cubic_trees(6):
                self.assert_matches_oracle(g, tree)


class TestEnumeration:
    def test_double_factorial_counts(self):
        assert sum(1 for _ in enumerate_cubic_trees(2)) == 1
        assert sum(1 for _ in enumerate_cubic_trees(3)) == 1
        assert sum(1 for _ in enumerate_cubic_trees(4)) == 3
        assert sum(1 for _ in enumerate_cubic_trees(5)) == 15
        assert sum(1 for _ in enumerate_cubic_trees(6)) == 105
        assert sum(1 for _ in enumerate_cubic_trees(7)) == 945

    def test_trees_are_valid_and_distinct(self):
        seen = set()
        for tree in enumerate_cubic_trees(5):
            tree.validate()
            key = frozenset(frozenset(e) for e in tree.edges)
            assert key not in seen
            seen.add(key)


class TestMinRankwidth:
    def test_known_values(self):
        assert exhaustive_min_rankwidth(FIXTURES["c4_unit"]) == 1
        assert exhaustive_min_rankwidth(house_graph()) == 2
        assert exhaustive_min_rankwidth(cycle_graph([1] * 5)) == 2
        assert exhaustive_min_rankwidth(WeightedGraph(2, {(0, 1): F(1)})) == 1

    def test_c5_every_tree_at_least_two(self):
        g = cycle_graph([1] * 5)
        assert all(tree_width(g, t) >= 2 for t in enumerate_cubic_trees(5))

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            exhaustive_min_rankwidth(cycle_graph([1] * 8))

    def test_leaf_mismatch(self):
        g = FIXTURES["c4_unit"]
        tree = next(enumerate_cubic_trees(5))
        with pytest.raises(LeafMismatch):
            tree_width(g, tree)


class TestExhaustiveMatchesEveryTree:
    """The oracle, which ranks each bipartition once, against the minimum of
    tree_width over every cubic tree."""

    def test_every_connected_unit_graph_up_to_five_vertices(self):
        checked = 0
        for n in range(2, 6):
            trees = list(enumerate_cubic_trees(n))
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = WeightedGraph(n, {e: F(1) for i, e in enumerate(pairs) if mask >> i & 1})
                if g.is_connected():
                    assert exhaustive_min_rankwidth(g) == min(tree_width(g, t) for t in trees), g
                    checked += 1
        assert checked == 1 + 4 + 38 + 728

    def test_seeded_weighted_graphs_on_six_vertices(self):
        rng = random.Random(47)
        trees = list(enumerate_cubic_trees(6))
        widths = set()
        for i in range(12):
            if i % 3 == 0:
                g = random_constructed(rng, 6)
            else:
                g = random_connected(rng, 6, extra_edge_prob=rng.choice((0.3, 0.6, 0.9)), signed=i % 2 == 0)
            width = exhaustive_min_rankwidth(g)
            assert width == min(tree_width(g, t) for t in trees), g
            widths.add(width)
        assert widths == {1, 2}


class TestIntegerRank:
    """The fraction-free rank kernel against elimination over Fraction."""

    def test_random_rational_matrices(self):
        rng = random.Random(53)
        full = deficient = 0
        for i in range(400):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            if i % 2:
                # A product of rows x k and k x cols factors has rank at most k.
                k = rng.randint(1, min(rows, cols))
                left = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(k)] for _ in range(rows)]
                right = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(cols)] for _ in range(k)]
                m = [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*right)] for row in left]
            else:
                m = [
                    [F(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.7 else F(0) for _ in range(cols)]
                    for _ in range(rows)
                ]
            expected = fraction_rank(m)
            assert _rank(m) == expected, m
            full += expected == min(rows, cols)
            deficient += expected < min(rows, cols)
        assert full > 100 and deficient > 100

    def test_large_entries_and_full_rank(self):
        # A Hilbert matrix is full rank with fast-growing denominators.
        for size in range(1, 9):
            hilbert = [[F(1, i + j + 1) for j in range(size)] for i in range(size)]
            assert _rank(hilbert) == size
            assert _rank(hilbert + [[2 * x for x in hilbert[0]]]) == size
