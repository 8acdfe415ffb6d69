from fractions import Fraction

import pytest

from stablespan import formats
from stablespan.corpus import FIXTURES, c4_graph
from stablespan.errors import MalformedTrace, ParseError, ZeroWeightEdge
from stablespan.factorization import factor_from_trace
from stablespan.graphs import WeightedGraph
from stablespan.polynomials import GaussianRational
from stablespan.probe import ZeroCertificate
from stablespan.rankwidth import build_rank_decomposition, cut_ranks
from stablespan.recognition import (
    RemovePendant,
    RemoveTwin,
    ReductionTrace,
    ScaleVertex,
    SignFlipBlock,
    recognize,
    replay_trace,
)
from stablespan.spanning import vertex_span_poly

F = Fraction


class TestGraphFiles:
    def test_round_trip_fixtures(self):
        for name, g in FIXTURES.items():
            text = formats.format_graph_text(g)
            parsed = formats.parse_graph_text(text)
            assert parsed == g, name

    def test_named_vertices_sorted_lexicographically(self):
        text = "n 3\nbeta alpha 1\nbeta gamma 3/2\n"
        g = formats.parse_graph_text(text)
        assert g.labels == ("alpha", "beta", "gamma")
        assert g.weight(0, 1) == 1
        assert g.weight(1, 2) == F(3, 2)

    def test_numeric_names_sorted_numerically(self):
        text = "n 11\n" + "\n".join(f"{k} {k + 1} 1" for k in range(10))
        g = formats.parse_graph_text(text)
        assert g.labels == tuple(str(k) for k in range(11))
        assert g.has_edge(9, 10)

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\nn 3  # three vertices\na b 1\nb c 1 # last\na c -1\n"
        g = formats.parse_graph_text(text)
        assert len(g.edges) == 3
        assert g.weight(0, 2) == -1

    def test_zero_weight_rejected_then_dropped(self):
        text = "n 3\na b 1\nb c 0\na c 1\n"
        with pytest.raises(ZeroWeightEdge):
            formats.parse_graph_text(text)
        g = formats.parse_graph_text(text, drop_zero_edges=True)
        assert len(g.edges) == 2

    def test_errors(self):
        with pytest.raises(ParseError):
            formats.parse_graph_text("a b 1\n")  # missing header
        with pytest.raises(ParseError):
            formats.parse_graph_text("n 2\na b 1\nb a 2\n")  # duplicate edge
        with pytest.raises(ParseError):
            formats.parse_graph_text("n 2\na a 1\n")  # self loop
        with pytest.raises(ParseError):
            formats.parse_graph_text("n 2\na b c d\n")
        with pytest.raises(ParseError):
            formats.parse_graph_text("n 1\na b 1\n")  # too many names
        with pytest.raises(ParseError):
            formats.parse_graph_text("n 4\na b 1\nb c 1\n")  # unnamed vertices

    def test_single_vertex_file(self):
        g = formats.parse_graph_text("n 1\n")
        assert g == WeightedGraph(1, {})


class TestTraceJson:
    def test_round_trip_all_step_kinds(self):
        trace = ReductionTrace(
            (
                SignFlipBlock(frozenset({0, 1, 2})),
                ScaleVertex(2, F(2, 3)),
                RemoveTwin(2, 0, F(0)),
                RemovePendant(1, 0, F(5, 2)),
                RemovePendant(0, 3, F(1)),
            ),
            final_vertex=3,
        )
        data = formats.trace_to_dict(trace)
        assert data["version"] == formats.TRACE_SCHEMA_VERSION
        assert formats.trace_from_dict(data) == trace

    def test_recognizer_trace_round_trips(self):
        trace = recognize(c4_graph(2, 3, 3, 2)).trace
        assert formats.trace_from_dict(formats.trace_to_dict(trace)) == trace

    def test_v1_non_unit_ratio_reads_as_scale_then_twin(self):
        # Twin records with ratio 1/2 (closed) and 3 (open), as v1 allows.
        data = {
            "version": 1,
            "final_vertex": 0,
            "steps": [
                {"op": "remove_twin", "removed": 3, "kept": 0, "ratio": "1/2", "bridge": "5"},
                {"op": "remove_twin", "removed": 2, "kept": 1, "ratio": "3", "bridge": "0"},
                {"op": "remove_pendant", "u": 1, "attach": 0, "weight": "2"},
            ],
        }
        trace = formats.trace_from_dict(data)
        assert trace.steps == (
            ScaleVertex(3, F(2)),
            RemoveTwin(3, 0, F(10)),
            ScaleVertex(2, F(1, 3)),
            RemoveTwin(2, 1, F(0)),
            RemovePendant(1, 0, F(2)),
        )
        g = replay_trace(trace)
        assert g == WeightedGraph.from_edges(
            4, [(0, 1, 2), (0, 2, 6), (0, 3, 5), (1, 3, 1), (2, 3, 3)]
        )
        assert factor_from_trace(trace).expand(g.n) == vertex_span_poly(g)

    @pytest.mark.parametrize(
        "data",
        [
            {"version": 1},
            {"version": 2, "final_vertex": 0, "steps": []},
            [],
            {"version": 1, "steps": []},
            {"version": 1, "final_vertex": "a", "steps": []},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "remove_twin", "removed": 1, "kept": 0, "bridge": "1"}]},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "remove_twin", "removed": 1, "kept": 0, "ratio": "0", "bridge": "1"}]},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "remove_pendant", "u": "a", "attach": 0, "weight": "1"}]},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "sign_flip_block", "block": [0, True]}]},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "sign_flip_block", "block": 0}]},
            {"version": 1, "final_vertex": 0, "steps": ["remove_pendant"]},
            {"version": 1, "final_vertex": 0, "steps": [{"op": "grow"}]},
        ],
    )
    def test_malformed_traces_raise_domain_errors(self, data):
        with pytest.raises(MalformedTrace):
            formats.trace_from_dict(data)

    def test_bad_rational_in_trace_is_parse_error(self):
        data = {"version": 1, "final_vertex": 0, "steps": [{"op": "remove_pendant", "u": 1, "attach": 0, "weight": None}]}
        with pytest.raises(ParseError):
            formats.trace_from_dict(data)


class TestCertificateJson:
    def test_round_trip(self):
        cert = ZeroCertificate(
            real_substitutions={2: F(1), 3: F(-1, 2)},
            hpoint={
                0: GaussianRational(F(0), F(1)),
                1: GaussianRational(F(-3, 5), F(1, 5)),
            },
        )
        data = formats.certificate_to_dict(cert)
        assert data["hpoint"]["x2"] == {"re": "-3/5", "im": "1/5"}
        assert formats.certificate_from_dict(data) == cert

    @pytest.mark.parametrize(
        "data",
        [
            {"version": 1},
            {"version": 1, "substitutions": {}},
            {"version": 1, "substitutions": {}, "hpoint": {"x1": {"im": "1"}}},
            {"version": 1, "substitutions": {}, "hpoint": {"x1": {"re": "0"}}},
            {"version": 1, "substitutions": {}, "hpoint": {"x1": "i"}},
            {"version": 1, "substitutions": [], "hpoint": {}},
            [],
            None,
            "certificate",
        ],
    )
    def test_malformed_certificates_raise_parse_error(self, data):
        with pytest.raises(ParseError):
            formats.certificate_from_dict(data)


class TestTreeSerialization:
    def test_text_and_dict(self):
        g = FIXTURES["c4_unit"]
        tree = build_rank_decomposition(recognize(g).trace)
        text = formats.tree_to_text(tree)
        assert text.count("(") == text.count(")")
        for v in range(4):
            assert str(v) in text
        data = formats.tree_to_dict(tree, cut_ranks(g, tree))
        assert set(data) == {"version", "leaves", "edges", "ranks"}
        assert all(info["rank"] == 1 for info in data["ranks"].values())

    def test_text_of_single_vertex(self):
        tree = build_rank_decomposition(recognize(WeightedGraph(1, {})).trace)
        assert formats.tree_to_text(tree) == "(0)"
