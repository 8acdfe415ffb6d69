import json
import subprocess
import sys

import pytest

from stablespan import formats
from stablespan.cli import Report, build_parser, run
from stablespan.corpus import FIXTURES, complete_graph
from stablespan.rankwidth import build_rank_decomposition, tree_width
from stablespan.recognition import recognize, replay_trace


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    for name, g in FIXTURES.items():
        (out / f"{name}.graph").write_text(formats.format_graph_text(g))
    return out


def capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_recognize_accept(self, fixture_dir, capsys):
        code, out = capture(capsys, ["recognize", str(fixture_dir / "k4_one_heavy.graph")])
        assert code == 0
        assert "accepted" in out

    def test_recognize_reject_names_house(self, fixture_dir, capsys):
        code, out = capture(capsys, ["recognize", str(fixture_dir / "house.graph")])
        assert code == 1
        assert "house" in out

    def test_missing_file_is_input_error(self, capsys):
        assert run(["recognize", "/nonexistent/g.graph"]) == 2

    def test_usage_error_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stablespan.cli", "nonsense"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_falsify_forbidden_is_one(self, fixture_dir, capsys):
        code, out = capture(capsys, ["falsify", str(fixture_dir / "c5.graph"), "--trials", "2000"])
        assert code == 1
        assert "falsified" in out

    def test_falsify_stable_is_zero(self, fixture_dir, capsys):
        code, _ = capture(capsys, ["falsify", str(fixture_dir / "c4_unit.graph"), "--trials", "100"])
        assert code == 0

    def test_oracle(self, fixture_dir, capsys):
        assert capture(capsys, ["oracle", str(fixture_dir / "domino.graph")])[0] == 1
        assert capture(capsys, ["oracle", str(fixture_dir / "star_k13.graph")])[0] == 0


class TestReports:
    def test_json_deterministic_and_round_trips(self, fixture_dir, capsys):
        argv = ["recognize", str(fixture_dir / "c4_reject.graph"), "--json"]
        code1, out1 = capture(capsys, argv)
        code2, out2 = capture(capsys, argv)
        assert code1 == code2 == 1
        assert out1 == out2
        report = Report.from_json(out1)
        assert report.verdict == "rejected"
        assert report.obstruction["kind"] == "stuck_core"

    def test_falsify_json_deterministic(self, fixture_dir, capsys):
        argv = ["falsify", str(fixture_dir / "house.graph"), "--trials", "5000", "--seed", "0", "--json"]
        _, out1 = capture(capsys, argv)
        _, out2 = capture(capsys, argv)
        assert out1 == out2
        report = Report.from_json(out1)
        assert report.certificate["kind"] == "zero_certificate"

    def test_trace_out_replays(self, fixture_dir, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code, _ = capture(
            capsys,
            ["recognize", str(fixture_dir / "c4_accept.graph"), "--trace-out", str(trace_file)],
        )
        assert code == 0
        trace = formats.trace_from_dict(json.loads(trace_file.read_text()))
        assert replay_trace(trace) == FIXTURES["c4_accept"]

    def test_poly_check(self, fixture_dir, capsys):
        code, out = capture(capsys, ["poly", str(fixture_dir / "c4_unit.graph"), "--check", "--json"])
        assert code == 0
        report = Report.from_json(out)
        assert report.polynomial == "x1*x2 + x1*x4 + x2*x3 + x3*x4"
        assert report.checks == [{"name": "matrix_tree", "passed": True}]

    def test_poly_edge_variant(self, fixture_dir, capsys):
        code, out = capture(capsys, ["poly", str(fixture_dir / "path3.graph"), "--edge", "--json"])
        assert code == 0
        assert Report.from_json(out).polynomial == "x1*x2"

    def test_factor_verify(self, fixture_dir, capsys):
        code, out = capture(capsys, ["factor", str(fixture_dir / "c4_unit.graph"), "--verify", "--json"])
        assert code == 0
        report = Report.from_json(out)
        assert report.factorization["constant"] == "1"
        assert sorted(report.factorization["factors"]) == ["x1 + x3", "x2 + x4"]

    def test_rankdec_with_oracle(self, fixture_dir, capsys):
        code, out = capture(capsys, ["rankdec", str(fixture_dir / "c4_unit.graph"), "--oracle", "--json"])
        assert code == 0
        report = Report.from_json(out)
        assert report.decomposition["width"] == 1
        assert report.oracle == {"min_rankwidth": 1}

    def test_rankdec_rejected(self, fixture_dir, capsys):
        code, out = capture(capsys, ["rankdec", str(fixture_dir / "house.graph"), "--oracle", "--json"])
        assert code == 1
        report = Report.from_json(out)
        assert report.oracle == {"min_rankwidth": 2}

    def test_rankdec_width_is_tree_width(self, fixture_dir, capsys):
        for name, g in FIXTURES.items():
            result = recognize(g)
            if not result.accepted:
                continue
            code, out = capture(capsys, ["rankdec", str(fixture_dir / f"{name}.graph"), "--json"])
            assert code == 0, name
            tree = build_rank_decomposition(result.trace)
            assert Report.from_json(out).decomposition["width"] == tree_width(g, tree), name

    def test_rankdec_k2_lists_both_vertices(self, tmp_path, capsys):
        path = tmp_path / "k2.graph"
        path.write_text("n 2\n0 1 1\n")
        code, out = capture(capsys, ["rankdec", str(path), "--json"])
        assert code == 0
        assert Report.from_json(out).decomposition["text"] == "(0,1)"

    def test_rankdec_complete_graph_40_has_width_one(self, tmp_path, capsys):
        path = tmp_path / "k40.graph"
        path.write_text(formats.format_graph_text(complete_graph(40)))
        code, out = capture(capsys, ["rankdec", str(path), "--json"])
        assert code == 0
        assert Report.from_json(out).decomposition["width"] == 1

    def test_falsify_poly_zero_denominator_is_input_error(self, capsys):
        assert run(["falsify", "--poly", "1/0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_falsify_poly_expression(self, capsys):
        code, out = capture(capsys, ["falsify", "--poly", "x1^2 + 1", "--json"])
        assert code == 1
        report = Report.from_json(out)
        assert report.certificate["hpoint"]["x1"] == {"re": "0", "im": "1"}

    def test_drop_zero_edges_flag(self, tmp_path, capsys):
        path = tmp_path / "z.graph"
        path.write_text("n 2\na b 1\nb a 0\n")
        assert run(["recognize", str(path)]) == 2  # duplicate edge after keeping zero
        path.write_text("n 2\na b 0\nb a 1\n")
        assert run(["recognize", str(path)]) == 2  # zero weight rejected
        capsys.readouterr()
        code, _ = capture(capsys, ["recognize", str(path), "--drop-zero-edges"])
        assert code == 0

    def test_falsify_drop_zero_edges(self, tmp_path, capsys):
        path = tmp_path / "tri0.graph"
        path.write_text("n 3\n0 1 1\n1 2 1\n0 2 0\n")
        assert run(["falsify", str(path), "--trials", "50"]) == 2
        assert "weight 0" in capsys.readouterr().err
        code, out = capture(capsys, ["falsify", str(path), "--trials", "50", "--drop-zero-edges", "--json"])
        assert code == 0
        assert Report.from_json(out).verdict == "no_counterexample_found"

    def test_falsify_empty_poly_is_input_error(self, capsys):
        assert run(["falsify", "--poly", ""]) == 2
        assert "empty polynomial" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_huge_poly_exponent_is_input_error(self, capsys):
        # Uncapped, the falsifier's univariate restriction alone is a list of
        # 10^8 coefficients.
        assert run(["falsify", "--poly", "x1^100000000"]) == 2
        assert "cap of 64" in capsys.readouterr().err
        assert run(["falsify", "--poly", "x1^40*x1^25 + 1"]) == 2
        assert "cap of 64" in capsys.readouterr().err
        assert run(["falsify", "--poly", "x" + "9" * 5000]) == 2
        assert "number too long" in capsys.readouterr().err

    def test_huge_variable_index_is_input_error(self, capsys):
        # Uncapped, every falsifier trial draws a value for each of 10^8
        # variables.
        assert run(["falsify", "--poly", "x100000000"]) == 2
        assert "cap of x1000" in capsys.readouterr().err
        assert run(["falsify", "--poly", "x1 + x1001"]) == 2
        assert "cap of x1000" in capsys.readouterr().err
        assert run(["falsify", "--poly", "x1*x1000 + 1", "--trials", "1"]) in (0, 1)
        assert run(["falsify", "--poly", "x1^64 + x2", "--trials", "5"]) in (0, 1)

    def test_huge_decimal_exponent_is_input_error(self, tmp_path, capsys):
        # Uncapped, Fraction builds 10^999999999 exactly.
        for weight in ("1e999999999", "1E-1_001", "2.5e+99999"):
            path = tmp_path / "huge.graph"
            path.write_text(f"n 2\na b {weight}\n")
            assert run(["recognize", str(path)]) == 2
            assert "decimal exponent" in capsys.readouterr().err
        path.write_text("n 3\na b 1e1000\nb c 2.5E-3\n")
        code, out = capture(capsys, ["recognize", str(path), "--json"])
        assert code == 0 and Report.from_json(out).verdict == "accepted"


class TestCorpus:
    def test_list(self, capsys):
        code, out = capture(capsys, ["corpus"])
        assert code == 0
        assert "house" in out and "k4_one_heavy" in out

    def test_emit(self, tmp_path, capsys):
        code, _ = capture(capsys, ["corpus", "--emit", str(tmp_path / "fx")])
        assert code == 0
        emitted = list((tmp_path / "fx").glob("*.graph"))
        assert len(emitted) == len(FIXTURES)

    def test_self_check_small(self, capsys):
        code, out = capture(capsys, ["corpus", "--self-check", "--max-n", "4"])
        assert code == 0
        assert "[PASS] unweighted_agreement" in out
        assert "[FAIL]" not in out
