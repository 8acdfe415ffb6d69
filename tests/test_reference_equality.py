"""The output-sensitive recognizer, factorizer and cut-rank pass against the
per-step references in conftest, which redo their work globally at every
step: equal results, step for step, on every fixture and a seeded family.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import boundary_cut_rank, brute_tree_side, reference_factor_from_trace, reference_recognize
from stablespan.corpus import FIXTURES, complete_graph, random_connected, random_constructed
from stablespan import graphs
from stablespan.factorization import factor_from_trace
from stablespan.graphs import WeightedGraph, biconnected_components, flip_blocks
from stablespan.rankwidth import DecompositionTree, build_rank_decomposition, cut_ranks
from stablespan.recognition import RemoveTwin, ScaleVertex, SignFlipBlock, recognize

F = Fraction


def seeded_family(seed: int, count: int) -> list[WeightedGraph]:
    """Constructed graphs with bridged and scaled twins, the same with
    blocks sign-flipped, complete graphs whose pairs are all twins with
    assorted ratios (one edge reweighted in some, leaving a stuck core),
    constructed graphs with one stray edge, and random connected graphs,
    signed or not."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        kind = i % 6
        n = rng.randint(2, 14)
        if kind == 0:
            g = random_constructed(rng, n)
        elif kind == 1:
            g = random_constructed(rng, n)
            blocks = biconnected_components(g).blocks
            g = flip_blocks(g, tuple(b for b in blocks if rng.random() < 0.5))
        elif kind == 2:
            a = [rng.randint(1, 3) for _ in range(n)]
            overrides = {(u, v): a[u] * a[v] for u, v in combinations(range(n), 2)}
            if n > 2 and rng.random() < 0.5:
                overrides[rng.choice(list(overrides))] *= 2
            g = complete_graph(n, overrides=overrides)
        elif kind == 3:
            g = random_constructed(rng, n)
            missing = [e for e in combinations(range(n), 2) if e not in g.edges]
            if missing:
                edges = dict(g.edges)
                edges[rng.choice(missing)] = F(rng.randint(1, 4))
                g = WeightedGraph(n, edges)
        else:
            g = random_connected(rng, n, extra_edge_prob=rng.choice((0.2, 0.5, 0.8)), signed=kind == 5)
        graphs.append(g)
    return graphs


FAMILY = seeded_family(61, 240)
ACCEPTED = [(g, r.trace) for g in list(FIXTURES.values()) + FAMILY for r in [recognize(g)] if r.accepted]


def test_family_covers_every_case():
    results = [recognize(g) for g in FAMILY]
    steps = [s for r in results if r.accepted for s in r.trace.steps]
    kinds = {r.obstruction.kind for r in results if not r.accepted}
    assert 80 < sum(r.accepted for r in results) < 200
    assert kinds == {"mixed_sign", "stuck_core", "forbidden_subgraph"}
    assert any(isinstance(s, ScaleVertex) for s in steps)
    assert any(isinstance(s, SignFlipBlock) for s in steps)
    assert any(isinstance(s, RemoveTwin) and s.bridge for s in steps)
    assert any(isinstance(s, RemoveTwin) and not s.bridge for s in steps)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_recognize_matches_reference_on_fixture(name):
    assert recognize(FIXTURES[name]) == reference_recognize(FIXTURES[name])


def test_recognize_matches_reference_on_family():
    for g in FAMILY:
        assert recognize(g) == reference_recognize(g), g


def test_recognize_matches_reference_on_complete_graphs():
    for n in range(1, 16):
        assert recognize(complete_graph(n)) == reference_recognize(complete_graph(n))


def test_factorization_matches_reference():
    for g, trace in ACCEPTED:
        assert factor_from_trace(trace) == reference_factor_from_trace(trace), g


def test_factorization_matches_reference_on_scaled_trace():
    # Scalings in the middle of the construction rescale variables that
    # many factors already hold.
    for g, trace in ACCEPTED:
        if len(trace.steps) < 3:
            continue
        steps = list(trace.steps)
        steps.insert(len(steps) // 2, ScaleVertex(trace.final_vertex, F(3, 2)))
        changed = type(trace)(tuple(steps), trace.final_vertex)
        assert factor_from_trace(changed) == reference_factor_from_trace(changed), g


def random_cubic_tree(rng: random.Random, n: int) -> DecompositionTree:
    """A cubic tree on leaves 0..n-1, inserting each leaf into a random edge."""
    edges = [(0, 1)]
    for k in range(2, n):
        a, b = edges.pop(rng.randrange(len(edges)))
        m = n + k
        edges += [(a, m), (m, b), (m, k)]
    return DecompositionTree(leaves={v: v for v in range(n)}, edges=tuple(edges))


def assert_cut_ranks_match_boundary_scan(g: WeightedGraph, tree: DecompositionTree) -> None:
    adj = g.adjacency()
    expected = []
    for edge in tree.edges:
        side = brute_tree_side(tree, edge)
        expected.append((edge, side, boundary_cut_rank(adj, side)))
    assert [(r.edge, r.side, r.rank) for r in cut_ranks(g, tree)] == expected


def test_cut_ranks_match_reference_on_decompositions():
    for g, trace in ACCEPTED:
        assert_cut_ranks_match_boundary_scan(g, build_rank_decomposition(trace))


def test_cut_ranks_match_reference_on_random_trees():
    rng = random.Random(67)
    ranks = set()
    for g in FAMILY:
        if g.n >= 2:
            tree = random_cubic_tree(rng, g.n)
            assert_cut_ranks_match_boundary_scan(g, tree)
            ranks.update(r.rank for r in cut_ranks(g, tree))
    assert {1, 2, 3} <= ranks


class _TwoTokens:
    """Stands in for `random.Random` so that every token is 2 or 4, and
    unrelated neighbourhoods share keys."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def getrandbits(self, k):
        return self.rng.randrange(2)


def test_recognize_matches_reference_when_keys_collide(monkeypatch):
    # Every shared key is then only a candidate: pairs with different
    # neighbourhoods or degrees land in one group, and the verdict cache
    # sees each kind of witness.
    monkeypatch.setattr(graphs, "Random", _TwoTokens)
    for g in FAMILY + [complete_graph(n) for n in range(2, 12)]:
        assert recognize(g) == reference_recognize(g), g
