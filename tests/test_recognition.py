import random
import time
from fractions import Fraction

import pytest

from conftest import brute_distance_hereditary, reference_recognize
from stablespan import formats
from stablespan.corpus import (
    FIXTURES,
    c4_graph,
    complete_graph,
    cycle_graph,
    domino_graph,
    gem_graph,
    house_graph,
    k4_one_heavy,
    random_connected,
    random_constructed,
)
from stablespan.errors import DisconnectedGraph, MalformedTrace, SizeCapExceeded
from stablespan.factorization import factor_from_trace
from stablespan.graphs import WeightedGraph, find_contractible_pairs, induced_subgraph, scale_vertex
from stablespan.rankwidth import build_rank_decomposition, cut_ranks
from stablespan.recognition import (
    ForbiddenSubgraph,
    ReductionTrace,
    RemovePendant,
    RemoveTwin,
    ScaleVertex,
    is_distance_hereditary_oracle,
    recognize,
    replay_trace,
)

F = Fraction


def _twin_trace(ratio: str, bridge: str) -> dict:
    """v1 trace: vertex 2 a twin of 1 with the given ratio and bridge, then
    vertex 0 a pendant at 1."""
    return {
        "version": 1,
        "final_vertex": 1,
        "steps": [
            {"op": "remove_twin", "removed": 2, "kept": 1, "ratio": ratio, "bridge": bridge},
            {"op": "remove_pendant", "u": 0, "attach": 1, "weight": "1"},
        ],
    }


class TestRecognizeFixtures:
    def test_k4_one_heavy_accepted(self):
        result = recognize(k4_one_heavy())
        assert result.accepted
        kinds = [type(s).__name__ for s in result.trace.steps]
        assert kinds == ["RemoveTwin", "RemoveTwin", "RemovePendant"]

    def test_house_rejected_with_name(self):
        result = recognize(house_graph())
        assert not result.accepted
        assert result.obstruction.kind == "forbidden_subgraph"
        assert result.obstruction.name == "house"

    def test_c4_weight_criterion(self):
        assert not recognize(c4_graph(1, 1, 1, 2)).accepted
        assert not recognize(c4_graph(2, 3, 2, 3)).accepted  # opposite products 4 vs 9
        assert recognize(c4_graph(2, 3, 3, 2)).accepted  # opposite products 6 = 6

    def test_c4_reject_core_is_whole_cycle(self):
        result = recognize(c4_graph(1, 1, 1, 2))
        assert result.obstruction.kind == "stuck_core"
        assert result.obstruction.core == frozenset({0, 1, 2, 3})

    def test_single_vertex(self):
        result = recognize(WeightedGraph(1, {}))
        assert result.accepted
        assert result.trace.steps == ()
        assert replay_trace(result.trace) == WeightedGraph(1, {})

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            recognize(WeightedGraph(3, {(0, 1): F(1)}))

    def test_mixed_sign_rejection_has_certificate(self):
        result = recognize(FIXTURES["mixed_sign_triangle"])
        assert not result.accepted
        assert result.obstruction.kind == "mixed_sign"
        assert result.obstruction.certificate is not None

    def test_normalizable_signs_accepted(self):
        result = recognize(FIXTURES["mixed_sign_bowtie"])
        assert result.accepted
        assert any(type(s).__name__ == "SignFlipBlock" for s in result.trace.steps)


class TestReplay:
    def test_round_trip_fixtures(self):
        for name in ("c4_unit", "c4_accept", "k4_one_heavy", "bowtie", "star_k13", "mixed_sign_bowtie"):
            g = FIXTURES[name]
            result = recognize(g)
            assert result.accepted, name
            assert replay_trace(result.trace) == g

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(200):
            g = random_constructed(rng, rng.randint(1, 9))
            result = recognize(g)
            assert result.accepted
            assert replay_trace(result.trace) == g

    def test_scaling_steps_replay_exactly(self):
        g = c4_graph(2, 3, 3, 2)
        result = recognize(g)
        assert any(isinstance(s, ScaleVertex) for s in result.trace.steps)
        assert replay_trace(result.trace) == g

    def test_k2_trace(self):
        trace = recognize(WeightedGraph(2, {(0, 1): F(1)})).trace
        assert replay_trace(trace) == WeightedGraph(2, {(0, 1): F(1)})

    def test_copy_of_isolated_vertex_rejected(self):
        trace = ReductionTrace((RemoveTwin(1, 0, F(0)),), final_vertex=0)
        with pytest.raises(MalformedTrace):
            replay_trace(trace)

    def test_missing_vertex_reference_rejected(self):
        trace = ReductionTrace((RemovePendant(2, 7, F(1)),), final_vertex=0)
        with pytest.raises(MalformedTrace):
            replay_trace(trace)

    def test_duplicate_vertex_rejected(self):
        trace = ReductionTrace(
            (RemovePendant(0, 1, F(1)), RemovePendant(0, 1, F(1))), final_vertex=1
        )
        with pytest.raises(MalformedTrace):
            replay_trace(trace)

    def test_nonpositive_step_parameters_rejected(self):
        with pytest.raises(MalformedTrace):
            RemovePendant(1, 0, F(0))
        with pytest.raises(MalformedTrace):
            ScaleVertex(0, F(-2))
        with pytest.raises(MalformedTrace):
            formats.trace_from_dict(_twin_trace("0", "0"))
        with pytest.raises(MalformedTrace):
            RemoveTwin(1, 0, F(-1))

    def test_general_ratio_twin_replay(self):
        # hand-made v1 trace with a non-unit ratio: copy scales the new vertex
        trace = formats.trace_from_dict(_twin_trace("3", "2"))
        g = replay_trace(trace)
        assert g.weight(0, 2) == 3  # 3 * w(0,1)
        assert g.weight(1, 2) == 2


class TestOracle:
    def test_forbidden_families(self):
        assert is_distance_hereditary_oracle(cycle_graph([1] * 5)) == ForbiddenSubgraph(
            "long_cycle", (0, 1, 2, 3, 4)
        )
        assert is_distance_hereditary_oracle(domino_graph()).name == "domino"
        assert is_distance_hereditary_oracle(house_graph()).name == "house"
        assert is_distance_hereditary_oracle(gem_graph()).name == "gem"
        assert is_distance_hereditary_oracle(cycle_graph([1] * 6)).name == "long_cycle"

    def test_embedded_forbidden_subgraph_found(self):
        # house plus a pendant still contains the house
        g = WeightedGraph.from_edges(
            6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1), (2, 4, 1), (4, 5, 1)]
        )
        found = is_distance_hereditary_oracle(g)
        assert isinstance(found, ForbiddenSubgraph)
        assert found.name == "house"
        assert found.vertices == (0, 1, 2, 3, 4)

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            is_distance_hereditary_oracle(cycle_graph([1] * 12))
        assert is_distance_hereditary_oracle(cycle_graph([1] * 12), cap=12).name == "long_cycle"

    def test_agrees_with_definition_oracle(self):
        rng = random.Random(10)
        for _ in range(120):
            g = random_connected(rng, rng.randint(2, 7))
            assert (is_distance_hereditary_oracle(g) is True) == brute_distance_hereditary(g)


class TestTheoryProperties:
    def test_support_law(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_constructed(rng, rng.randint(2, 8))
            support = WeightedGraph(g.n, {e: F(1) for e in g.edges})
            assert recognize(support).accepted

    def test_twin_member_deletion_stays_accepted(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(80):
            g = random_constructed(rng, rng.randint(3, 8))
            for pair in find_contractible_pairs(g):
                sub, _ = induced_subgraph(g, set(range(g.n)) - {pair.v})
                assert recognize(sub).accepted
                checked += 1
        assert checked > 50

    def test_scaling_invariance_of_verdict(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 6)
            g = random_connected(rng, n) if rng.random() < 0.5 else random_constructed(rng, n)
            v = rng.randrange(g.n)
            c = F(rng.randint(1, 8), rng.randint(1, 5))
            assert recognize(g).accepted == recognize(scale_vertex(g, v, c)).accepted


class TestGroupedFinderMatchesOracleLoop:
    def test_seeded_sample(self):
        """Traces and obstructions equal those of the reference loop, which
        rescans all vertex pairs after every step, on accepted, rejected and
        signed graphs."""
        rng = random.Random(37)
        graphs = []
        for i in range(240):
            n = rng.randint(1, 10)
            if i % 2:
                graphs.append(random_constructed(rng, n))
            else:
                graphs.append(random_connected(rng, n, extra_edge_prob=0.3, signed=i % 4 == 0))
        grouped = [recognize(g) for g in graphs]
        assert 60 < sum(r.accepted for r in grouped) < 220
        assert [reference_recognize(g) for g in graphs] == grouped


class TestScale:
    def test_complete_graph_150(self):
        g = complete_graph(150)
        result = recognize(g)
        assert result.accepted
        # The last two vertices form a K2, which goes as a pendant.
        kinds = [type(s) for s in result.trace.steps]
        assert kinds == [RemoveTwin] * 148 + [RemovePendant]
        assert replay_trace(result.trace) == g

    def test_random_constructed_400(self):
        g = random_constructed(random.Random(400), 400)
        result = recognize(g)
        assert result.accepted
        assert replay_trace(result.trace) == g

    def test_random_constructed_5000_through_the_stack(self):
        g = random_constructed(random.Random(5000), 5000)
        start = time.perf_counter()
        result = recognize(g)
        factorization = factor_from_trace(result.trace)
        tree = build_rank_decomposition(result.trace)
        elapsed = time.perf_counter() - start
        assert result.accepted
        assert replay_trace(result.trace) == g
        assert len(factorization.factors) == g.n - 2
        tree.validate()
        assert sorted(tree.leaves.values()) == list(range(g.n))
        # About 1 s on a 2-CPU machine; redoing global work at every step,
        # these layers took over a minute.
        assert elapsed < 30

    def test_cut_ranks_random_constructed_1000(self):
        # The sides alone hold about n^2 vertices (a leaf's edge has every
        # other vertex on its far side): 2.5 GB of frozensets at n = 5000.
        g = random_constructed(random.Random(1000), 1000)
        tree = build_rank_decomposition(recognize(g).trace)
        start = time.perf_counter()
        ranks = cut_ranks(g, tree)
        elapsed = time.perf_counter() - start
        assert len(ranks) == 2 * g.n - 3
        assert all(r.rank == 1 for r in ranks)
        # About 0.2 s on a 2-CPU machine, against 1.6 s for a scan of every
        # side.
        assert elapsed < 10
