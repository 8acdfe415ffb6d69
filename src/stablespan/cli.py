"""Command-line surface: recognize, poly, factor, rankdec, falsify, oracle, corpus.

Exit codes: 0 = accepted/verified, 1 = rejected/falsified/check-failed,
2 = usage or input error.  Reports go to stdout, human-readable by default
or as schema-versioned JSON with --json.  Default JSON output contains no
timings, so identical inputs and seeds produce byte-identical reports;
--timings adds wall-clock measurements when wanted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import formats, selfcheck
from .corpus import FIXTURES
from .errors import StableSpanError
from .factorization import factor_from_trace, verify_factorization
from .graphs import WeightedGraph
from .polynomials import parse_polynomial
from .probe import RealRootednessViolation, ZeroCertificate, falsify, verify_certificate
from .rankwidth import build_rank_decomposition, cut_ranks, exhaustive_min_rankwidth
from .recognition import is_distance_hereditary_oracle, recognize
from .spanning import edge_span_poly, matrix_tree_check, vertex_span_poly

REPORT_SCHEMA_VERSION = 1


@dataclasses.dataclass
class Report:
    """JSON-serializable result of one CLI invocation."""

    command: str
    input: str
    verdict: str
    trace: dict | None = None
    obstruction: dict | None = None
    factorization: dict | None = None
    decomposition: dict | None = None
    certificate: dict | None = None
    violation: dict | None = None
    polynomial: str | None = None
    oracle: dict | None = None
    checks: list | None = None
    timings: dict | None = None

    def to_dict(self) -> dict:
        data = {"schema_version": REPORT_SCHEMA_VERSION}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                data[field.name] = value
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "Report":
        data = json.loads(text)
        if data.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise StableSpanError(f"unsupported report schema {data.get('schema_version')!r}")
        kwargs = {f.name: data.get(f.name) for f in dataclasses.fields(Report)}
        return Report(**kwargs)


def _obstruction_dict(obstruction) -> dict:
    data: dict = {"kind": obstruction.kind, "detail": obstruction.detail}
    if obstruction.core is not None:
        data["core"] = sorted(obstruction.core)
    if obstruction.name is not None:
        data["name"] = obstruction.name
        data["vertices"] = list(obstruction.vertices)
    if obstruction.certificate is not None:
        cert = obstruction.certificate
        data["mixed_sign"] = {
            "center": cert.center,
            "positive_edge": [cert.center, cert.pos_neighbor, formats.format_rational(cert.pos_weight)],
            "negative_edge": [cert.center, cert.neg_neighbor, formats.format_rational(cert.neg_weight)],
        }
    return data


def _load_graph(args) -> WeightedGraph:
    return formats.load_graph_file(args.graph, args.drop_zero_edges)


def _rejected(args, result) -> tuple[int, Report]:
    """Exit code and report of a graph that `recognize` rejected."""
    return 1, Report(args.subcommand, args.graph, "rejected", obstruction=_obstruction_dict(result.obstruction))


def _checked(report: Report, name: str, ok: bool) -> tuple[int, Report]:
    """Record one independent check on the report and make it the verdict."""
    report.checks = [{"name": name, "passed": ok}]
    report.verdict = "verified" if ok else "mismatch"
    return (0 if ok else 1), report


def _cmd_recognize(args) -> tuple[int, Report]:
    result = recognize(_load_graph(args))
    if not result.accepted:
        return _rejected(args, result)
    trace_data = formats.trace_to_dict(result.trace)
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(trace_data, indent=2) + "\n", encoding="utf-8")
    return 0, Report("recognize", args.graph, "accepted", trace=trace_data)


def _cmd_poly(args) -> tuple[int, Report]:
    g = _load_graph(args)
    poly = edge_span_poly(g) if args.edge else vertex_span_poly(g)
    report = Report("poly", args.graph, "computed", polynomial=poly.to_text())
    if args.check:
        return _checked(report, "matrix_tree", matrix_tree_check(g))
    return 0, report


def _cmd_factor(args) -> tuple[int, Report]:
    g = _load_graph(args)
    result = recognize(g)
    if not result.accepted:
        return _rejected(args, result)
    f = factor_from_trace(result.trace)
    data = {
        "constant": formats.format_rational(f.constant),
        "factors": [form.to_text() for form in f.factors],
    }
    report = Report("factor", args.graph, "factored", factorization=data)
    if args.verify:
        return _checked(report, "brute_force_equality", verify_factorization(g, f))
    return 0, report


def _cmd_rankdec(args) -> tuple[int, Report]:
    g = _load_graph(args)
    result = recognize(g)
    if result.accepted:
        tree = build_rank_decomposition(result.trace)
        ranks = cut_ranks(g, tree)
        data = formats.tree_to_dict(tree, ranks)
        data["text"] = formats.tree_to_text(tree)
        data["width"] = max((r.rank for r in ranks), default=0)
        code, report = 0, Report("rankdec", args.graph, "width_1_decomposition", decomposition=data)
    else:
        code, report = _rejected(args, result)
    if args.oracle and 2 <= g.n <= args.cap:
        report.oracle = {"min_rankwidth": exhaustive_min_rankwidth(g, cap=args.cap)}
    return code, report


def _cmd_falsify(args) -> tuple[int, Report]:
    if args.poly is not None:
        poly, source = parse_polynomial(args.poly), args.poly
    else:
        poly, source = vertex_span_poly(_load_graph(args)), args.graph
    result = falsify(poly, trials=args.trials, seed=args.seed)
    report = Report("falsify", source, "no_counterexample_found", polynomial=poly.to_text())
    if isinstance(result, ZeroCertificate):
        report.verdict = "falsified" if verify_certificate(poly, result) else "certificate_failed_verification"
        report.certificate = formats.certificate_to_dict(result)
    elif isinstance(result, RealRootednessViolation):
        report.verdict = "falsified_weak"
        report.violation = formats.violation_to_dict(result)
    else:
        return 0, report
    return 1, report


def _cmd_oracle(args) -> tuple[int, Report]:
    g = _load_graph(args)
    found = is_distance_hereditary_oracle(g, cap=args.cap)
    if found is True:
        return 0, Report("oracle", args.graph, "distance_hereditary")
    report = Report(
        "oracle",
        args.graph,
        "forbidden_subgraph",
        oracle={"name": found.name, "vertices": list(found.vertices)},
    )
    return 1, report


def _cmd_corpus(args) -> tuple[int, Report]:
    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for name, graph in sorted(FIXTURES.items()):
            (out / f"{name}.graph").write_text(formats.format_graph_text(graph), encoding="utf-8")
        report = Report("corpus", args.emit, "fixtures_written", checks=[{"count": len(FIXTURES)}])
        return 0, report
    if args.self_check:
        results = selfcheck.run_self_check(max_n=args.max_n, seed=args.seed)
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        all_passed = all(r.passed for r in results)
        report = Report(
            "corpus", "self-check", "all_invariants_hold" if all_passed else "invariant_violated", checks=checks
        )
        return (0 if all_passed else 1), report
    listing = [
        {"name": name, "n": graph.n, "edges": len(graph.edges)}
        for name, graph in sorted(FIXTURES.items())
    ]
    return 0, Report("corpus", "builtin", "listed", checks=listing)


def _print_human(report: Report) -> None:
    print(f"{report.command}: {report.verdict}  ({report.input})")
    if report.polynomial is not None:
        print(f"  polynomial: {report.polynomial}")
    if report.trace is not None:
        steps = report.trace["steps"]
        print(f"  trace: {len(steps)} steps, final vertex {report.trace['final_vertex']}")
        for step in steps:
            print(f"    {step}")
    if report.obstruction is not None:
        print(f"  obstruction: {report.obstruction['kind']}: {report.obstruction['detail']}")
    if report.factorization is not None:
        print(f"  constant: {report.factorization['constant']}")
        for factor in report.factorization["factors"]:
            print(f"  factor: {factor}")
    if report.decomposition is not None:
        print(f"  tree: {report.decomposition['text']}")
        print(f"  width: {report.decomposition['width']}")
        for edge, info in sorted(report.decomposition.get("ranks", {}).items()):
            print(f"    cut {edge}: side {info['side']} rank {info['rank']}")
    if report.certificate is not None:
        print(f"  certificate: {json.dumps(report.certificate, sort_keys=True)}")
    if report.violation is not None:
        print(f"  violation: {json.dumps(report.violation, sort_keys=True)}")
    if report.oracle is not None:
        print(f"  oracle: {json.dumps(report.oracle, sort_keys=True)}")
    if report.checks is not None:
        for check in report.checks:
            if "passed" in check:
                status = "PASS" if check["passed"] else "FAIL"
                detail = f": {check['detail']}" if check.get("detail") else ""
                print(f"  [{status}] {check.get('name', '?')}{detail}")
            else:
                print(f"  {json.dumps(check, sort_keys=True)}")
    if report.timings is not None:
        for name, seconds in report.timings.items():
            print(f"  time {name}: {seconds:.3f}s")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later `run`."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    zero_edges = argparse.ArgumentParser(add_help=False)
    zero_edges.add_argument("--drop-zero-edges", action="store_true", help="silently drop edges of weight 0")
    graph_input = argparse.ArgumentParser(add_help=False, parents=[common, zero_edges])
    graph_input.add_argument("graph")

    parser = argparse.ArgumentParser(
        prog="stablespan",
        description=(
            "Recognize weighted stable graphs, factor their spanning polynomials, "
            "build rank-width-1 decompositions, and hunt upper-half-plane zeros."
        ),
        epilog=(
            "Graph files: a line 'n <count>', then one 'u v weight' line per edge; "
            "names match [A-Za-z0-9_]+, weights are rationals like 3/2 or -1, "
            "'#' starts a comment."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("recognize", parents=[graph_input], help="decide weighted stability, emit trace or obstruction")
    p.add_argument("--trace-out", help="write the reduction trace JSON to this file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("poly", parents=[graph_input], help="spanning polynomial by exhaustive enumeration")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--vertex", action="store_true", help="vertex polynomial (default)")
    group.add_argument("--edge", action="store_true", help="edge polynomial instead")
    p.add_argument("--check", action="store_true", help="cross-check against the symbolic Kirchhoff cofactor")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("factor", parents=[graph_input], help="linear factorization of the vertex polynomial")
    p.add_argument("--verify", action="store_true", help="compare the product against brute force")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("rankdec", parents=[graph_input], help="width-1 rank decomposition from the reduction trace")
    p.add_argument("--oracle", action="store_true", help="also compute the exhaustive minimum rank-width")
    p.add_argument("--cap", type=int, default=7, help="vertex cap for the exhaustive oracle")
    p.set_defaults(func=_cmd_rankdec)

    p = sub.add_parser("falsify", parents=[common, zero_edges], help="search for an exact upper-half-plane zero")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("graph", nargs="?", help="graph file; its vertex polynomial is probed")
    source.add_argument("--poly", help="polynomial expression like '3/2*x1^2*x3 + x2'")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("oracle", parents=[graph_input], help="forbidden-subgraph distance-hereditary test (weights ignored)")
    p.add_argument("--cap", type=int, default=10)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("corpus", parents=[common], help="built-in fixtures and the cross-module self-check")
    p.add_argument("--list", action="store_true", help="list fixtures (default action)")
    p.add_argument("--emit", metavar="DIR", help="write fixture .graph files into DIR")
    p.add_argument("--self-check", action="store_true", help="run every cross-module invariant")
    p.add_argument("--max-n", type=int, default=5, help="sweep size for the self-check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_corpus)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, report = args.func(args)
    except (StableSpanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        report.timings = {"total": time.perf_counter() - started}
    if args.json:
        print(report.to_json())
    else:
        _print_human(report)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
