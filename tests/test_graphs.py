import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import _canonical_edges, brute_articulation_points, brute_contractible_pairs, is_connected_set
from stablespan.corpus import (
    FIXTURES,
    bowtie_graph,
    c4_graph,
    complete_graph,
    house_graph,
    k4_one_heavy,
    path_graph,
    random_connected,
    random_constructed,
)
from stablespan.errors import DisconnectedGraph, EmptySet, InvalidGraph, ZeroWeightEdge
from stablespan.graphs import (
    MixedSignCertificate,
    WeightedGraph,
    _contractible_pairs_adj,
    _is_connected,
    biconnected_components,
    find_contractible_pairs,
    flip_blocks,
    induced_subgraph,
    normalize_signs,
    scale_vertex,
    star_polynomial,
)

F = Fraction


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            WeightedGraph(2, {(0, 0): F(1)})

    def test_rejects_zero_weight(self):
        with pytest.raises(ZeroWeightEdge):
            WeightedGraph(2, {(0, 1): F(0)})

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraph):
            WeightedGraph(2, {(0, 2): F(1)})

    def test_unordered_keys(self):
        g = WeightedGraph(3, {(2, 0): F(5)})
        assert g.weight(0, 2) == 5
        assert g.weight(2, 0) == 5

    def test_equality_ignores_labels(self):
        a = WeightedGraph(2, {(0, 1): F(1)}, labels=("a", "b"))
        b = WeightedGraph(2, {(0, 1): F(1)})
        assert a == b

    def test_weights_become_fractions_once(self):
        w = F(3, 2)
        g = WeightedGraph(3, {(0, 1): w, (1, 2): 2, (0, 2): "5/3"})
        assert g.edges[(0, 1)] is w
        assert g.edges == {(0, 1): F(3, 2), (1, 2): F(2), (0, 2): F(5, 3)}
        assert all(type(x) is F for x in g.edges.values())


class TestBiconnectedComponents:
    def test_two_edge_path(self):
        dec = biconnected_components(path_graph([1, 1]))
        assert sorted(map(sorted, dec.blocks)) == [[0, 1], [1, 2]]
        assert dec.articulation_vertices == {1}

    def test_triangle_is_one_block(self):
        dec = biconnected_components(FIXTURES["c4_unit"])
        assert len(dec.blocks) == 1
        assert not dec.articulation_vertices

    def test_bowtie(self):
        dec = biconnected_components(bowtie_graph())
        assert sorted(map(sorted, dec.blocks)) == [[0, 1, 2], [2, 3, 4]]
        assert dec.articulation_vertices == {2}
        assert dec.block_tree[2] == (0, 1)

    def test_disconnected_rejected(self):
        g = WeightedGraph(3, {(0, 1): F(1)})
        with pytest.raises(DisconnectedGraph):
            biconnected_components(g)

    def test_against_brute_force(self):
        rng = random.Random(1)
        for _ in range(150):
            g = random_connected(rng, rng.randint(2, 7))
            dec = biconnected_components(g)
            assert set(dec.articulation_vertices) == brute_articulation_points(g)
            # every edge in exactly one block
            count = 0
            for block in dec.blocks:
                block_edges = [e for e in g.edges if e[0] in block and e[1] in block]
                count += len(block_edges)
                # blocks have no internal cut vertex
                if len(block) >= 3:
                    for v in block:
                        assert is_connected_set(g, set(block) - {v})
            assert count == len(g.edges)
            # pairwise intersections are single articulation vertices
            for i, a in enumerate(dec.blocks):
                for b in dec.blocks[i + 1 :]:
                    shared = a & b
                    assert len(shared) <= 1
                    assert shared <= dec.articulation_vertices


class TestNormalizeSigns:
    def test_all_negative_triangle_flips(self):
        g = WeightedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
        positive, flips = normalize_signs(g)
        assert all(w == 1 for w in positive.edges.values())
        assert flips == (frozenset({0, 1, 2}),)
        assert flip_blocks(positive, flips) == g

    def test_path_blocks_normalized_independently(self):
        g = path_graph([-2, 3])
        positive, flips = normalize_signs(g)
        assert positive == path_graph([2, 3])
        assert flips == (frozenset({0, 1}),)

    def test_mixed_triangle_yields_certificate(self):
        cert = normalize_signs(FIXTURES["mixed_sign_triangle"])
        assert isinstance(cert, MixedSignCertificate)
        assert cert.pos_weight > 0 > cert.neg_weight
        # the zero point kills the star polynomial of the center exactly
        g = FIXTURES["mixed_sign_triangle"]
        star = star_polynomial(g, cert.center)
        point = cert.zero_point(g.n)
        assert star.eval_complex([point[v] for v in range(g.n)]).is_zero()
        assert all(point[v].im > 0 for v in cert.hpoint_vertices())

    def test_flip_counts_each_listed_set(self):
        g = bowtie_graph()
        triangle = frozenset({0, 1, 2})
        assert flip_blocks(g, (triangle, triangle)) == g
        flipped = flip_blocks(g, (triangle, frozenset({0, 1})))
        assert [flipped.weight(*e) for e in ((0, 1), (0, 2), (1, 2), (2, 3))] == [
            g.weight(0, 1),
            -g.weight(0, 2),
            -g.weight(1, 2),
            g.weight(2, 3),
        ]

    def test_round_trip_random_blocks(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_connected(rng, rng.randint(2, 7))
            dec = biconnected_components(g)
            chosen = tuple(b for b in dec.blocks if rng.random() < 0.5)
            signed = flip_blocks(g, chosen)
            out = normalize_signs(signed)
            assert not isinstance(out, MixedSignCertificate)
            positive, flips = out
            assert positive == g
            assert flip_blocks(positive, flips) == signed


class TestContractiblePairs:
    def test_unit_c4(self):
        pairs = find_contractible_pairs(FIXTURES["c4_unit"])
        assert [(p.u, p.v) for p in pairs] == [(0, 2), (1, 3)]
        assert all(p.ratio == 1 and p.twin_kind == "open" for p in pairs)

    def test_k4_one_heavy(self):
        pairs = {p.as_pair(): p for p in find_contractible_pairs(k4_one_heavy())}
        assert set(pairs) == {(0, 1), (2, 3)}
        assert pairs[(0, 1)].twin_kind == "closed"
        assert pairs[(0, 1)].bridge == 2
        assert pairs[(2, 3)].bridge == 1
        assert all(p.ratio == 1 for p in pairs.values())

    def test_house_has_none(self):
        assert find_contractible_pairs(house_graph()) == []

    def test_k2_convention(self):
        pairs = find_contractible_pairs(WeightedGraph.from_edges(2, [(0, 1, F(5, 3))]))
        assert len(pairs) == 1
        assert pairs[0].ratio == 1
        assert pairs[0].bridge == F(5, 3)

    def test_ratio_recorded(self):
        g = c4_graph(2, 3, 3, 2)
        pairs = {p.as_pair(): p for p in find_contractible_pairs(g)}
        assert pairs[(0, 2)].ratio == F(2, 3)  # w(1,0)/w(1,2) = w(3,0)/w(3,2)
        assert pairs[(1, 3)].ratio == F(1)  # w(0,1)/w(0,3) = w(2,1)/w(2,3) = 1

    def test_exact_ratio_required(self):
        g = c4_graph(1, 1, 1, 2)
        assert find_contractible_pairs(g) == []

    def test_requires_positive_weights(self):
        with pytest.raises(InvalidGraph):
            find_contractible_pairs(FIXTURES["mixed_sign_triangle"])

    def test_invariant_under_vertex_scaling(self):
        rng = random.Random(3)
        for _ in range(80):
            g = random_constructed(rng, rng.randint(2, 7))
            v = rng.randrange(g.n)
            c = F(rng.randint(1, 9), rng.randint(1, 5))
            scaled = scale_vertex(g, v, c)
            before = {p.as_pair() for p in find_contractible_pairs(g)}
            after = {p.as_pair() for p in find_contractible_pairs(scaled)}
            assert before == after

    def test_ratio_holds_on_every_common_neighbor(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_constructed(rng, rng.randint(2, 8))
            for p in find_contractible_pairs(g):
                for xw in g.neighbors(p.u) - {p.v}:
                    assert g.weight(xw, p.u) == p.ratio * g.weight(xw, p.v)


class TestGroupedPairsMatchOracle:
    """The neighbourhood-grouped pair finder lists exactly the pairs, ratios
    and bridges of the all-pairs scan, in the same order."""

    @staticmethod
    def assert_matches_oracle(adj) -> None:
        assert list(_contractible_pairs_adj(adj)) == brute_contractible_pairs(adj), adj

    def test_every_small_connected_graph_with_weights_one_and_two(self):
        # Every labelled connected graph on n <= 5 vertices with unit
        # weights, and one per isomorphism class with every {1, 2} weighting.
        one, two = F(1), F(2)
        classes = set()
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                support = [e for i, e in enumerate(pairs) if mask >> i & 1]
                adj = {v: {} for v in range(n)}
                for u, v in support:
                    adj[u][v] = adj[v][u] = one
                if not _is_connected(adj):
                    continue
                self.assert_matches_oracle(adj)
                shape = (n, _canonical_edges(n, frozenset(support)))
                if shape in classes:
                    continue
                classes.add(shape)
                for weights in product((one, two), repeat=len(support)):
                    for (u, v), w in zip(support, weights):
                        adj[u][v] = adj[v][u] = w
                    self.assert_matches_oracle(adj)
        assert len(classes) == 1 + 1 + 2 + 6 + 21

    def test_seeded_weighted_graphs_up_to_twelve_vertices(self):
        rng = random.Random(29)
        for i in range(300):
            n = rng.randint(2, 12)
            if i % 3 == 0:
                g = random_constructed(rng, n)
            elif i % 3 == 1:
                g = random_connected(rng, n, extra_edge_prob=rng.choice((0.2, 0.6)))
            else:
                # A clique with w(u, v) = a_u * a_v has every pair as a closed
                # twin with ratio a_u / a_v; reweighting one edge leaves
                # pairs whose closed neighbourhoods agree but whose ratios do
                # not.
                a = [rng.randint(1, 3) for _ in range(n)]
                overrides = {(u, v): a[u] * a[v] for u, v in combinations(range(n), 2)}
                if rng.random() < 0.7:
                    overrides[rng.choice(list(overrides))] *= 2
                g = complete_graph(n, overrides=overrides)
            self.assert_matches_oracle(g.adjacency())


class TestTwinLemma:
    """No member of a contractible pair is a cut vertex: every other neighbor
    of one twin is a neighbor of the other.  The recognizer relies on this
    instead of filtering candidates by articulation points."""

    @staticmethod
    def assert_no_twin_is_cut_vertex(g: WeightedGraph) -> None:
        cut = brute_articulation_points(g)
        for p in _contractible_pairs_adj(g.adjacency()):
            assert p.u not in cut and p.v not in cut, (g, p)

    def test_every_connected_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = WeightedGraph(n, {e: F(1) for i, e in enumerate(pairs) if mask >> i & 1})
                if g.is_connected():
                    self.assert_no_twin_is_cut_vertex(g)

    def test_random_graphs_up_to_twelve_vertices(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(2, 12)
            self.assert_no_twin_is_cut_vertex(random_constructed(rng, n))
            self.assert_no_twin_is_cut_vertex(random_connected(rng, n, extra_edge_prob=0.15))


class TestInducedSubgraph:
    def test_k4_minus_vertex_is_triangle(self):
        sub, order = induced_subgraph(k4_one_heavy(), {0, 1, 2})
        assert order == (0, 1, 2)
        assert sub.n == 3
        assert sub.weight(0, 1) == 2
        assert sub.weight(0, 2) == 1

    def test_house_square_is_c4(self):
        sub, order = induced_subgraph(house_graph(), {0, 1, 2, 4})
        assert order == (0, 1, 2, 4)
        assert len(sub.edges) == 4
        assert all(sub.degree(v) == 2 for v in range(4))

    def test_full_set_is_identity(self):
        g = k4_one_heavy()
        sub, order = induced_subgraph(g, set(range(g.n)))
        assert sub == g
        assert order == (0, 1, 2, 3)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            induced_subgraph(k4_one_heavy(), set())
