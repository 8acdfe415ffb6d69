"""Correctness gate: is one CLI response right for its generated input?

A response is (exit code, stdout).  It passes when the exit code and the
verdict match what the generator knows about the graph, and when every
artifact in the report re-verifies: traces replay to the input graph,
decompositions have width 1, named obstructions induce the named graph,
mixed-sign pairs sit in one block with opposite signs, polynomials agree
with an independent numeric Kirchhoff determinant, and zero certificates
pass `verify_certificate`.  The gate never runs the command again.

`stablespan` must be importable before `check` is called.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations

from workloads import PLANTS, Graph, Request

# Above this many vertices the recognizer skips the forbidden-subgraph
# oracle and reports a stuck core (`DEFAULT_ORACLE_CAP` in the program).
ORACLE_CAP = 10


class GateError(Exception):
    """The response is wrong; the message says why."""


def check(request: Request, code: int | None, stdout: str) -> str | None:
    """Return None when the response is correct, else the reason it is not."""
    try:
        _check(request, code, stdout)
    except GateError as exc:
        return str(exc)
    except Exception as exc:  # a malformed report is a wrong response
        return f"{type(exc).__name__}: {exc}"
    return None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _check(request: Request, code: int | None, stdout: str) -> None:
    _expect(code in (0, 1), f"exit code {code!r}")
    report = json.loads(stdout)
    command = request.command
    _expect(report.get("schema_version") == 1, "schema_version is not 1")
    _expect(report.get("command") == command, f"report is for {report.get('command')!r}")
    g = request.graph
    verdict = report.get("verdict")
    if command == "recognize":
        if g.accepted:
            _expect((code, verdict) == (0, "accepted"), f"accepted graph got {verdict!r}")
            _check_trace(g, report["trace"])
        else:
            _expect((code, verdict) == (1, "rejected"), f"rejected graph got {verdict!r}")
            _check_obstruction(g, report["obstruction"])
    elif command == "factor":
        _expect(g.accepted, "factor is only run on accepted graphs")
        _check_factorization(g, request, code, report)
    elif command == "rankdec":
        _expect(g.accepted, "rankdec is only run on accepted graphs")
        _check_decomposition(g, request, code, report)
    elif command == "poly":
        _expect((code, verdict) == (0, "verified"), f"poly --check got {verdict!r}")
        _expect(report["checks"] == [{"name": "matrix_tree", "passed": True}], "matrix-tree check not passed")
        _check_polynomial(g, report["polynomial"])
    elif command == "falsify":
        _check_falsify(g, code, report)
    elif command == "oracle":
        _check_oracle(g, code, report)
    else:
        raise GateError(f"no gate for command {command!r}")


# -- accepted graphs -------------------------------------------------------------


def _check_trace(g: Graph, trace_data: dict) -> None:
    from stablespan.formats import trace_from_dict
    from stablespan.recognition import replay_trace

    rebuilt = replay_trace(trace_from_dict(trace_data))
    _expect(rebuilt.n == g.n and dict(rebuilt.edges) == g.edges, "trace does not replay to the input graph")


def _check_factorization(g: Graph, request: Request, code: int, report: dict) -> None:
    verify = "--verify" in request.argv
    expected = "verified" if verify else "factored"
    _expect((code, report["verdict"]) == (0, expected), f"factor got {report['verdict']!r}")
    data = report["factorization"]
    _expect(len(data["factors"]) == max(g.n - 2, 0), f"{len(data['factors'])} factors for n={g.n}")
    if verify:
        _expect(report["checks"] == [{"name": "brute_force_equality", "passed": True}], "brute force check failed")
    if g.n <= 12:
        # Small enough for an exact determinant: the product must equal the
        # spanning polynomial at two points.
        for point in _points(g.n):
            value = Fraction(data["constant"])
            for factor in data["factors"]:
                value *= eval_polynomial(factor, point)
            _expect(value == kirchhoff_value(g, point), "factorization disagrees with the Kirchhoff determinant")


def _check_decomposition(g: Graph, request: Request, code: int, report: dict) -> None:
    _expect((code, report["verdict"]) == (0, "width_1_decomposition"), f"rankdec got {report['verdict']!r}")
    tree = report["decomposition"]
    _expect(sorted(tree["leaves"].values()) == list(range(g.n)), "tree leaves are not the vertices")
    _expect(tree["width"] == (1 if g.n >= 2 else 0), f"width {tree['width']}")
    _expect(all(cut["rank"] <= 1 for cut in tree["ranks"].values()), "a cut has rank above 1")
    if "--oracle" in request.argv:
        _expect(report["oracle"] == {"min_rankwidth": 1}, f"oracle says {report['oracle']!r}")


# -- rejected graphs -------------------------------------------------------------


def _check_obstruction(g: Graph, obstruction: dict) -> None:
    kind = obstruction["kind"]
    if g.family == "mixed_sign":
        _expect(kind == "mixed_sign", f"mixed-sign graph rejected as {kind!r}")
        _check_mixed_sign(g, obstruction["mixed_sign"])
    elif kind == "forbidden_subgraph":
        _check_named(g, obstruction["name"], obstruction["vertices"])
    else:
        _expect(kind == "stuck_core", f"unexpected obstruction {kind!r}")
        core = set(obstruction["core"])
        _expect(core <= set(range(g.n)) and len(core) >= 4, "core is not a vertex set of size >= 4")
        adj = _support(g)
        _expect(all(len(adj[v] & core) >= 2 for v in core), "core has a pendant vertex")
        # Every core of a planted obstruction is not distance-hereditary, so
        # the oracle must name one whenever the core is within its cap.
        _expect(g.family != "forbidden" or len(core) > ORACLE_CAP, "oracle missed the planted obstruction")


def _check_mixed_sign(g: Graph, cert: dict) -> None:
    center = cert["center"]
    (c1, p, w_pos), (c2, q, w_neg) = cert["positive_edge"], cert["negative_edge"]
    _expect(c1 == c2 == center, "mixed-sign edges do not share the center")
    _expect(g.edges.get(_key(center, p)) == Fraction(w_pos) > 0, "positive edge is not in the input")
    _expect(g.edges.get(_key(center, q)) == Fraction(w_neg) < 0, "negative edge is not in the input")
    # Two edges at one vertex lie in one block iff their far ends stay
    # connected when the shared vertex is removed.
    adj = _support(g)
    seen, stack = {p, center}, [p]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    _expect(q in seen, "mixed-sign edges lie in different blocks")


def _check_named(g: Graph, name: str, vertices: list[int]) -> None:
    adj = _support(g)
    k = len(vertices)
    _expect(len(set(vertices)) == k and set(vertices) <= set(range(g.n)), "bad obstruction vertices")
    pos = {v: i for i, v in enumerate(vertices)}
    edges = {(min(pos[u], pos[v]), max(pos[u], pos[v])) for u in vertices for v in adj[u] if v in pos}
    if name == "long_cycle":
        _expect(k >= 5 and len(edges) == k and _is_cycle(edges, k), "vertices do not induce a long cycle")
        return
    _expect(name in PLANTS and PLANTS[name][0] == k, f"unknown obstruction {name!r} on {k} vertices")
    target = set(PLANTS[name][1])
    _expect(
        len(edges) == len(target)
        and any({(min(s[u], s[v]), max(s[u], s[v])) for u, v in edges} == target for s in permutations(range(k))),
        f"vertices do not induce a {name}",
    )


def _is_cycle(edges: set[tuple[int, int]], k: int) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(k)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return False
    prev, cur, steps = 0, adj[0][0], 1
    while cur != 0:
        prev, cur = cur, adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        steps += 1
    return steps == k


def _check_falsify(g: Graph, code: int, report: dict) -> None:
    from stablespan.formats import certificate_from_dict
    from stablespan.polynomials import parse_polynomial
    from stablespan.probe import RealRootednessViolation, verify_certificate, verify_violation

    verdict = report["verdict"]
    _check_polynomial(g, report["polynomial"])
    poly = parse_polynomial(report["polynomial"], g.n)
    if verdict == "falsified":
        _expect(code == 1 and not g.accepted, "stable graph falsified")
        cert = certificate_from_dict(report["certificate"])
        _expect(verify_certificate(poly, cert), "zero certificate does not verify")
    elif verdict == "falsified_weak":
        _expect(code == 1 and not g.accepted, "stable graph falsified")
        data = report["violation"]
        witness = RealRootednessViolation(
            {int(name[1:]) - 1: Fraction(val) for name, val in data["substitutions"].items()},
            int(data["free"][1:]) - 1,
            tuple(Fraction(c) for c in data["coefficients"]),
        )
        _expect(verify_violation(poly, witness), "real-rootedness violation does not verify")
    else:
        # The falsifier is a search: finding nothing is a correct answer.
        _expect((code, verdict) == (0, "no_counterexample_found"), f"falsify got {verdict!r}")


def _check_oracle(g: Graph, code: int, report: dict) -> None:
    verdict = report["verdict"]
    if verdict == "distance_hereditary":
        _expect(code == 0 and g.family != "forbidden", "planted obstruction missed")
    else:
        # Every family but the planted one grows a distance-hereditary
        # support (a vertex, a triangle or a 4-cycle) by pendants and twins.
        _expect((code, verdict) == (1, "forbidden_subgraph"), f"oracle got {verdict!r}")
        _expect(g.family == "forbidden", "distance-hereditary support has no obstruction")
        _check_named(g, report["oracle"]["name"], report["oracle"]["vertices"])


# -- independent arithmetic --------------------------------------------------------


def _key(u: int, v: int) -> tuple[int, int]:
    return (min(u, v), max(u, v))


def _support(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _points(n: int) -> list[list[Fraction]]:
    return [[Fraction(v + 2, 3) for v in range(n)], [Fraction(2 * v + 3, v + 5) for v in range(n)]]


def kirchhoff_value(g: Graph, x: list[Fraction]) -> Fraction:
    """The vertex spanning polynomial at x, by the weighted matrix-tree theorem.

    The Laplacian with off-diagonal entries -w(uv)*x_u*x_v has, after
    deleting one row and column, determinant P(x) * prod_v x_v.
    """
    if g.n == 1:
        return Fraction(1)
    size = g.n - 1
    m = [[Fraction(0)] * size for _ in range(size)]
    for (u, v), w in g.edges.items():
        t = w * x[u] * x[v]
        for a, b in ((u, v), (v, u)):
            if a < size:
                m[a][a] += t
                if b < size:
                    m[a][b] -= t
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            if f:
                for c in range(col, size):
                    m[r][c] -= f * m[col][c]
    prod = Fraction(1)
    for value in x:
        prod *= value
    return det / prod


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:x\d+(?:\^\d+)?\*?)*)$")
_VAR = re.compile(r"x(\d+)(?:\^(\d+))?")


def eval_polynomial(text: str, x: list[Fraction]) -> Fraction:
    """Evaluate the report text form, e.g. "3/2*x1^2*x3 + x2 - 1", at x."""
    total = Fraction(0)
    for sign, term in re.findall(r"([+-]?)\s*([^\s+-]+)", text):
        match = _TERM.match(term)
        if not match:
            raise GateError(f"cannot read term {term!r}")
        value = Fraction(match.group(1) or 1)
        for var, exp in _VAR.findall(match.group(2)):
            value *= x[int(var) - 1] ** int(exp or 1)
        total += -value if sign == "-" else value
    return total


def _check_polynomial(g: Graph, text: str) -> None:
    for point in _points(g.n):
        _expect(eval_polynomial(text, point) == kirchhoff_value(g, point), "polynomial disagrees with Kirchhoff")
